/**
 * @file
 * Tests for the observability subsystem (src/obs/): the TraceRecorder's
 * concurrency and export guarantees, the zero-allocation disabled hot
 * path, the unified MetricRegistry, the kernel profiler built on
 * sim/parallel's task hook, and the end-to-end invariant that a traced
 * serving engine produces one reconstructable span tree per request
 * while serving byte-identical logits.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <sstream>

#include "obs/kernel_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/server_stats.hpp"
#include "sim/parallel.hpp"
#include "sim/stats.hpp"

using namespace gcod;
using namespace gcod::obs;

// --------------------------------------------------- allocation counting
//
// The disabled-recorder invariant is "zero allocations on the hot path",
// so this binary counts operator new calls per thread. The counter is a
// trivially-constructible thread_local (zero-initialized before any
// dynamic initialization), so the override is safe from the first
// allocation on.
namespace {
thread_local uint64_t t_allocs = 0;
} // namespace

void *
operator new(std::size_t n)
{
    ++t_allocs;
    void *p = std::malloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    ++t_allocs;
    void *p = std::malloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

// The nothrow forms must be replaced too: the library's defaults would
// allocate outside this malloc/free pair (std::stable_sort's buffer
// goes through them), and ASan flags the free as a mismatch.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// ----------------------------------------------------------- trace basics
TEST(TraceRecorder, ScopedSpanRecordsNameParentAndAttrs)
{
    TraceRecorder rec(kTraceRequests);
    uint64_t root = rec.newId();
    {
        ScopedSpan s(&rec, kTraceRequests, "stage", "serve", root);
        ASSERT_TRUE(s.active());
        EXPECT_NE(s.id(), 0u);
        s.attr("request", int64_t(7)).attr("tier", "standard");
    }
    ASSERT_EQ(rec.size(), 1u);
    TraceSpan s = rec.snapshot().front();
    EXPECT_EQ(s.name, "stage");
    EXPECT_EQ(s.cat, "serve");
    EXPECT_EQ(s.parent, root);
    EXPECT_NE(s.tid, 0u);
    ASSERT_EQ(s.attrs.size(), 2u);
    EXPECT_EQ(s.attrs[0], (std::pair<std::string, std::string>{"request",
                                                               "7"}));
    EXPECT_EQ(s.attrs[1],
              (std::pair<std::string, std::string>{"tier", "standard"}));
}

TEST(TraceRecorder, LevelGatesKernelSpans)
{
    TraceRecorder rec(kTraceRequests);
    ScopedSpan s(&rec, kTraceKernels, "shard.compute", "shard");
    EXPECT_FALSE(s.active());
    EXPECT_EQ(s.id(), 0u);
    s.attr("ignored", int64_t(1));
    s.finish();
    EXPECT_EQ(rec.size(), 0u);

    rec.setLevel(kTraceKernels);
    { ScopedSpan t(&rec, kTraceKernels, "shard.compute", "shard"); }
    EXPECT_EQ(rec.size(), 1u);
}

TEST(TraceRecorder, BoundedBufferCountsDropsInsteadOfGrowing)
{
    // 16 max spans over 16 shards = 1 per shard; a single thread lands
    // every span in its own shard, so exactly one survives.
    TraceRecorder rec(kTraceRequests, 16);
    for (int i = 0; i < 10; ++i)
        rec.instant("burst", "test", 0);
    EXPECT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec.dropped(), 9u);
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, ExportsJsonlAndChromeTrace)
{
    TraceRecorder rec(kTraceRequests);
    uint64_t root = rec.instant("request", "serve", 0,
                                {{"request", "1"}, {"tier", "latency"}});
    rec.instant("reply \"quoted\"\n", "serve", root);

    std::ostringstream jsonl;
    rec.writeJsonl(jsonl);
    std::string jl = jsonl.str();
    // One line per span; ids, parent links, and escaping survive.
    EXPECT_EQ(std::count(jl.begin(), jl.end(), '\n'), 2);
    EXPECT_NE(jl.find("\"name\":\"request\""), std::string::npos);
    EXPECT_NE(jl.find("\"parent\":" + std::to_string(root)),
              std::string::npos);
    EXPECT_NE(jl.find("\\\"quoted\\\"\\n"), std::string::npos);

    std::ostringstream chrome;
    rec.writeChromeTrace(chrome);
    std::string ct = chrome.str();
    EXPECT_EQ(ct.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(ct.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(ct.find("\"tier\":\"latency\""), std::string::npos);
    EXPECT_NE(ct.find("\"parent\":\"" + std::to_string(root) + "\""),
              std::string::npos);
}

TEST(TraceRecorder, LevelFromEnvOverridesAndClamps)
{
    unsetenv("GCOD_TRACE");
    EXPECT_EQ(TraceRecorder::levelFromEnv(kTraceRequests), kTraceRequests);
    setenv("GCOD_TRACE", "2", 1);
    EXPECT_EQ(TraceRecorder::levelFromEnv(kTraceOff), kTraceKernels);
    setenv("GCOD_TRACE", "99", 1);
    EXPECT_EQ(TraceRecorder::levelFromEnv(kTraceOff), kTraceKernels);
    setenv("GCOD_TRACE", "-3", 1);
    EXPECT_EQ(TraceRecorder::levelFromEnv(kTraceRequests), kTraceOff);
    unsetenv("GCOD_TRACE");
}

// ------------------------------------------------------ concurrent tracing
TEST(ConcurrentTrace, PoolThreadsRecordCompleteSpans)
{
    TraceRecorder rec(kTraceKernels);
    uint64_t root = rec.newId();
    const int64_t kItems = 4096;
    // One span per item, recorded concurrently from the kernel pool;
    // minPerPart=1 forces the region across every worker.
    parallelFor(
        0, kItems,
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i) {
                ScopedSpan s(&rec, kTraceKernels, "work", "test", root);
                s.attr("i", i);
            }
        },
        1);

    EXPECT_EQ(rec.dropped(), 0u);
    std::vector<TraceSpan> spans = rec.snapshot();
    ASSERT_EQ(spans.size(), size_t(kItems));

    // No torn records: every span is fully formed, every id unique,
    // every parent link resolves, and all items are accounted for.
    std::set<uint64_t> ids;
    std::set<int64_t> items;
    for (const TraceSpan &s : spans) {
        EXPECT_EQ(s.name, "work");
        EXPECT_EQ(s.cat, "test");
        EXPECT_EQ(s.parent, root);
        EXPECT_TRUE(ids.insert(s.id).second) << "duplicate id " << s.id;
        ASSERT_EQ(s.attrs.size(), 1u);
        items.insert(std::strtoll(s.attrs[0].second.c_str(), nullptr, 10));
    }
    EXPECT_EQ(items.size(), size_t(kItems));
    // snapshot() is (startNs, id)-sorted.
    for (size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].startNs, spans[i].startNs);
}

TEST(ConcurrentTrace, DisabledRecorderAllocatesNothingOnHotPath)
{
    TraceRecorder off(kTraceOff);
    uint64_t before = t_allocs;
    for (int i = 0; i < 1000; ++i) {
        ScopedSpan s(&off, kTraceRequests, "hot", "serve", 17);
        s.attr("request", int64_t(i))
            .attr("tier", "standard")
            .attr("estimate_s", 0.25);
        ScopedSpan none(nullptr, kTraceKernels, "hot", "shard");
        none.attr("i", i);
    }
    EXPECT_EQ(t_allocs - before, 0u);
    EXPECT_EQ(off.size(), 0u);
}

// ------------------------------------------------------------ metrics
TEST(Metrics, SnapshotFlattensCountersHistogramsAndGauges)
{
    MetricRegistry reg;
    reg.counter("serve", "requests_completed").inc(3);
    StatDistribution &lat = reg.histogram("serve", "latency_seconds");
    lat.sample(1.0);
    lat.sample(3.0);
    reg.gauge("cache.hit_rate", "live hit rate", [] { return 0.75; });

    std::map<std::string, double> snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("serve.requests_completed"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.latency_seconds.count"), 2.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.latency_seconds.mean"), 2.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.latency_seconds.min"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.latency_seconds.max"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.latency_seconds.p99"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("cache.hit_rate"), 0.75);

    // Same content -> identical serialized snapshot (diffable).
    std::ostringstream a, b;
    reg.print(a);
    reg.print(b);
    EXPECT_EQ(a.str(), b.str());
    std::ostringstream json;
    reg.writeJson(json);
    EXPECT_NE(json.str().find("\"serve.requests_completed\": 3"),
              std::string::npos);
}

TEST(Metrics, ServerStatsLivesInExternalRegistryAsView)
{
    MetricRegistry reg;
    serve::ServerStats stats(reg);
    stats.recordBatch("GCoD", 4, 0.1, 0.2, 8);

    // The mutation through the ServerStats view is visible in the
    // registry's unified snapshot...
    std::map<std::string, double> snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("serve.batches_dispatched"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.batches_quantized"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("serve.batch_size.count"), 1.0);
    // ...and the existing accessors keep working.
    EXPECT_EQ(stats.batches(), 1u);
    EXPECT_DOUBLE_EQ(stats.meanBatchSize(), 4.0);
}

TEST(Metrics, EngineRegistryUnifiesServeCountersAndGauges)
{
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    opts.traceLevel = kTraceRequests;
    serve::ServingEngine engine(opts);
    for (int i = 0; i < 4; ++i)
        engine.submit({0, "Cora", "GCN", NodeId(i)});
    engine.drain();

    std::map<std::string, double> snap = engine.metrics().snapshot();
    EXPECT_DOUBLE_EQ(snap.at("serve.requests_completed"), 4.0);
    EXPECT_DOUBLE_EQ(snap.at("cache.misses"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("engine.pending"), 0.0);
    EXPECT_GT(snap.at("trace.spans"), 0.0);
    EXPECT_DOUBLE_EQ(snap.at("fault.injected.total"), 0.0);
    // One taxonomy gauge per fault kind.
    for (int k = 0; k < fault::kNumFaultKinds; ++k)
        EXPECT_EQ(snap.count(std::string("fault.injected.") +
                             fault::faultKindName(fault::FaultKind(k))),
                  1u);
    EXPECT_EQ(snap.at("serve.requests_completed"),
              double(engine.stats().completed()));
}

TEST(Metrics, StatGroupPrintIsNameSorted)
{
    StatGroup g("grp");
    g.scalar("zeta").inc(1);
    g.distribution("mid").sample(2.0);
    g.scalar("alpha").inc(2);
    std::ostringstream os;
    g.print(os);
    std::string out = os.str();
    size_t a = out.find("grp.alpha");
    size_t m = out.find("grp.mid");
    size_t z = out.find("grp.zeta");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, m);
    EXPECT_LT(m, z);
}

// ------------------------------------------------------- kernel profiling
TEST(KernelProfiler, AggregatesZoneSamplesFromThePool)
{
    KernelProfiler prof;
    EXPECT_FALSE(taskProfilingEnabled());
    prof.enable();
    ASSERT_TRUE(taskProfilingEnabled());
    {
        ParallelZone zone("obs_test_zone");
        parallelFor(
            0, 512, [&](const Range &, size_t) {}, 1);
    }
    auto zones = prof.zones();
    ASSERT_EQ(zones.count("obs_test_zone"), 1u);
    const ZoneStats &z = zones.at("obs_test_zone");
    EXPECT_GT(z.tasks, 0u);
    EXPECT_EQ(z.items, 512);
    EXPECT_GE(z.seconds, 0.0);
    EXPECT_GE(z.maxTaskSeconds, 0.0);
    EXPECT_FALSE(z.threadSeconds.empty());
    EXPECT_GE(prof.totalTasks(), z.tasks);

    std::ostringstream report;
    prof.report(report);
    EXPECT_NE(report.str().find("obs_test_zone"), std::string::npos);

    prof.disable();
    EXPECT_FALSE(taskProfilingEnabled());
    prof.clear();
    EXPECT_EQ(prof.totalTasks(), 0u);
    // Uninstalled: further regions leave no samples behind.
    parallelFor(
        0, 64, [&](const Range &, size_t) {}, 1);
    EXPECT_EQ(prof.totalTasks(), 0u);
}

TEST(KernelProfiler, MirrorsTasksAsKernelSpans)
{
    TraceRecorder rec(kTraceKernels);
    KernelProfiler prof;
    prof.enable(&rec);
    {
        ParallelZone zone("obs_mirrored_zone");
        parallelFor(
            0, 256, [&](const Range &, size_t) {}, 1);
    }
    prof.disable();

    size_t mirrored = 0;
    for (const TraceSpan &s : rec.snapshot()) {
        if (s.cat != "kernel")
            continue;
        ++mirrored;
        EXPECT_EQ(s.name, "obs_mirrored_zone");
    }
    EXPECT_GT(mirrored, 0u);
}

// --------------------------------------------- end-to-end engine tracing
namespace {

serve::ServeOptions
shardedQuantizedOptions()
{
    serve::ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.shards = 2;
    opts.shardBackends = {"GCoD@bits=8", "GCoD@bits=8"};
    opts.workers = 1;
    opts.artifactScale = 0.002; // keep the Reddit stand-in test-sized
    return opts;
}

const TraceSpan *
findSpan(const std::vector<TraceSpan> &spans, const std::string &name)
{
    for (const TraceSpan &s : spans)
        if (s.name == name)
            return &s;
    return nullptr;
}

} // namespace

TEST(EngineTrace, SingleShardedRequestYieldsOneReconstructableTree)
{
    serve::ServeOptions opts = shardedQuantizedOptions();
    opts.traceLevel = kTraceKernels;
    serve::ServingEngine engine(opts);

    auto fut = engine.submit({0, "Reddit", "GCN", 5});
    engine.drain();
    serve::InferenceReply reply = fut.get();
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.executedBits, 8);

    std::vector<TraceSpan> spans = engine.trace().snapshot();
    EXPECT_EQ(engine.trace().dropped(), 0u);
    std::map<uint64_t, const TraceSpan *> byId;
    for (const TraceSpan &s : spans)
        byId[s.id] = &s;

    // Every parent link resolves to a recorded span (no dangling edges).
    for (const TraceSpan &s : spans)
        if (s.parent != 0)
            EXPECT_EQ(byId.count(s.parent), 1u)
                << s.name << " has dangling parent " << s.parent;

    // The full causal chain of the one request: admission -> batch ->
    // shard schedule/host execution -> per-shard compute + halo
    // exchange -> reply, all hanging off a single root "request" span.
    const TraceSpan *request = findSpan(spans, "request");
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->parent, 0u);
    const TraceSpan *admission = findSpan(spans, "admission");
    ASSERT_NE(admission, nullptr);
    EXPECT_EQ(admission->parent, request->id);
    const TraceSpan *batch = findSpan(spans, "batch");
    ASSERT_NE(batch, nullptr);
    EXPECT_EQ(batch->parent, request->id);
    const TraceSpan *sched = findSpan(spans, "shard.schedule");
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->parent, batch->id);
    const TraceSpan *exec = findSpan(spans, "host.exec");
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->parent, batch->id);
    const TraceSpan *reply_span = findSpan(spans, "reply");
    ASSERT_NE(reply_span, nullptr);
    EXPECT_EQ(reply_span->parent, request->id);

    size_t computes = 0, exchanges = 0;
    for (const TraceSpan &s : spans) {
        if (s.name == "shard.compute") {
            ++computes;
            EXPECT_EQ(s.parent, exec->id);
        } else if (s.name == "halo.exchange") {
            ++exchanges;
            EXPECT_EQ(s.parent, exec->id);
        }
    }
    // 2 shards x 2 layers compute spans; one exchange per layer.
    EXPECT_EQ(computes, 4u);
    EXPECT_EQ(exchanges, 2u);

    // Both export formats carry the whole tree.
    std::ostringstream jsonl, chrome;
    engine.trace().writeJsonl(jsonl);
    engine.trace().writeChromeTrace(chrome);
    for (const char *name :
         {"request", "admission", "batch", "shard.schedule", "host.exec",
          "shard.compute", "halo.exchange", "reply"}) {
        EXPECT_NE(jsonl.str().find(std::string("\"name\":\"") + name),
                  std::string::npos)
            << name;
        EXPECT_NE(chrome.str().find(std::string("\"name\":\"") + name),
                  std::string::npos)
            << name;
    }
}

TEST(EngineTrace, TracingChangesZeroServingBytes)
{
    serve::ServeOptions traced_opts = shardedQuantizedOptions();
    traced_opts.traceLevel = kTraceKernels;
    serve::ServingEngine traced(traced_opts);
    serve::ServingEngine untraced(shardedQuantizedOptions());

    serve::ArtifactKey key = traced.keyFor("Reddit", "GCN");
    auto a = traced.peekLogits(key, 8);
    auto b = untraced.peekLogits(key, 8);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->rows(), b->rows());
    ASSERT_EQ(a->cols(), b->cols());
    EXPECT_EQ(std::memcmp(a->data().data(), b->data().data(),
                          size_t(a->rows() * a->cols()) * sizeof(float)),
              0);
    EXPECT_GT(traced.trace().size(), 0u);
    EXPECT_EQ(untraced.trace().size(), 0u);
}
