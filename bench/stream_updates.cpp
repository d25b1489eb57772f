/**
 * @file
 * Streamed-update bench: measures what src/dyn/ + applyUpdate() buy
 * over the hot-swap path they ride on. Three phases:
 *
 *   1. Cold build + full-rebuild baseline — publishArtifact() on a
 *      fresh engine that holds no artifact of the dataset, timed
 *      through the whole build (synthesis, GCoD, feature
 *      materialization, shard plan, quant packs; no forward runs
 *      until the next request or update). This is the cost an update
 *      stream would pay per batch WITHOUT incremental recompute. An
 *      in-place publishArtifact() on the serving engine reuses its
 *      resident feature buffer; it is reported beside the baseline,
 *      ungated.
 *   2. Incremental update stream — applyUpdate() over small edge-toggle
 *      deltas (default 8 edges, well under 1% of the graph). Reports
 *      mean/max update latency, the dirty-row fraction per layer pass
 *      (staleness: how much of the epoch had to be recomputed), and the
 *      speedup over the full-rebuild baseline. Then, per model family
 *      (GCN, GraphSAGE, GIN, GAT, ResGCN) over the resident graph and
 *      features, the median dyn::IncrementalForward::applied() time
 *      over the same deltas at one thread (`incremental_by_family`).
 *   3. Concurrent serving — a writer thread streams updates while
 *      open-loop requests are submitted; the epoch hot-swap contract
 *      means zero requests may drop or fail, and every retired epoch
 *      must reclaim once the stream drains.
 *
 * Config overrides (key=value):
 *   dataset=Cora updates=24 batch_edges=8 requests=160 workers=2
 *   full_rebuilds=2 scale=0 seed=42 check=0 out=BENCH_stream.json
 *
 * check=1 gates the run on the tentpole acceptance criteria:
 * incremental update >= 5x faster than a full rebuild for these small
 * deltas, and zero dropped requests during concurrent swaps. It also
 * exits 1 unless the resident fp32 logits after phase 2 memcmp-equal a
 * full referenceForward of that epoch, or unless every family's
 * incremental logits after its stream memcmp-equal a full
 * referenceForward of its last epoch.
 */
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "dyn/delta.hpp"
#include "dyn/dyn_state.hpp"
#include "dyn/incremental_forward.hpp"
#include "serve/engine.hpp"
#include "sim/rng.hpp"

using namespace gcod;
using namespace gcod::bench;
using namespace gcod::serve;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Random edge toggles among the resident graph's nodes. */
dyn::GraphDelta
toggleDelta(const Graph &g, int count, uint64_t seed)
{
    Rng rng(seed);
    dyn::GraphDelta d;
    NodeId n = g.numNodes();
    for (int i = 0; i < count; ++i) {
        NodeId u = NodeId(rng.uniformInt(0, n - 1));
        NodeId v = NodeId(rng.uniformInt(0, n - 1));
        if (u == v)
            continue;
        if (g.adjacency().at(u, v) != 0.0f)
            d.removeEdge(u, v);
        else
            d.insertEdge(u, v);
    }
    return d;
}

/** Same shape and the same float bytes. */
bool
sameBytes(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data().data(), b.data().data(),
                       b.data().size() * sizeof(float)) == 0;
}

/** One family's incremental recompute over the update stream. */
struct FamilyStream
{
    std::string family;
    size_t updates = 0;
    double medianMs = 0.0;
    double meanRows = 0.0;
    /** Final logits memcmp-equal a full pass (always true unchecked). */
    bool logitsMatch = true;
};

/**
 * dyn::IncrementalForward::applied() for every recipe family over
 * @p g0 and @p x, at one thread: a freshly initialized model per
 * family, then the same edge-toggle deltas the stream applies
 * (seeds 1000 + i). Only applied() is timed.
 */
std::vector<FamilyStream>
incrementalByFamily(const Graph &g0, const Matrix &x, int classes,
                    int updates, int batch_edges, bool check)
{
    const int threadsBefore = currentThreads();
    setThreads(1);
    std::vector<FamilyStream> out;
    for (const char *family : {"GCN", "GraphSAGE", "GIN", "GAT", "ResGCN"}) {
        FamilyStream fs;
        fs.family = family;
        Rng wrng(7);
        GnnModel model =
            makeModel(family, int(x.cols()), classes, false, wrng);
        dyn::DynState st(g0, {});
        std::optional<GraphContext> ctx;
        ctx.emplace(st.graph(), st.normalized(), st.rowMean());
        ForwardRecipe recipe = forwardRecipeFor(model, *ctx);
        dyn::IncrementalForward fwd =
            dyn::IncrementalForward::fromScratch(recipe, x);
        std::vector<double> ms;
        size_t rows = 0;
        for (int i = 0; i < updates; ++i) {
            dyn::DynUpdateStats us = st.apply(
                toggleDelta(st.graph(), batch_edges, uint64_t(1000 + i)));
            if (us.applied.noop())
                continue;
            ctx.emplace(st.graph(), st.normalized(), st.rowMean());
            recipe = forwardRecipeFor(model, *ctx);
            Clock::time_point t0 = Clock::now();
            dyn::IncrementalForward next = fwd.applied(recipe, x, us.dirty);
            ms.push_back(secondsSince(t0) * 1e3);
            rows += next.lastDirtyRows();
            fwd = std::move(next);
        }
        fs.updates = ms.size();
        if (!ms.empty()) {
            std::sort(ms.begin(), ms.end());
            const size_t h = ms.size() / 2;
            fs.medianMs = ms.size() % 2 ? ms[h] : 0.5 * (ms[h - 1] + ms[h]);
            fs.meanRows = double(rows) / double(ms.size());
        }
        if (check)
            fs.logitsMatch =
                sameBytes(fwd.logits(), referenceForward(recipe, x));
        out.push_back(fs);
    }
    setThreads(threadsBefore);
    return out;
}

/** The bench body; returns 1 when check=1 finds wrong logits. */
int
streamUpdates(Config &cfg)
{
    const std::string dataset = cfg.getString("dataset", "Cora");
    const int updates = int(cfg.getInt("updates", 24));
    const int batchEdges = int(cfg.getInt("batch_edges", 8));
    const int requests = int(cfg.getInt("requests", 160));
    const int fullRebuilds = int(cfg.getInt("full_rebuilds", 2));
    const int check = int(cfg.getInt("check", 0));

    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = size_t(cfg.getInt("workers", 2));
    opts.artifactScale = cfg.getDouble("scale", 0.0);
    opts.artifactSeed = uint64_t(cfg.getInt("seed", 42));
    ServingEngine engine(opts);
    ArtifactKey key = engine.keyFor(dataset, "GCN");

    // ---- Phase 1: cold build + full-rebuild baseline -----------------
    Clock::time_point t0 = Clock::now();
    engine.applyUpdate(key, dyn::GraphDelta{}); // noop delta: builds only
    double coldBuildS = secondsSince(t0);

    auto bundle0 = engine.cache().peek(key);
    GCOD_ASSERT(bundle0 != nullptr, "cold build left no resident bundle");
    const EdgeOffset edges0 = bundle0->synth.graph.numEdges();
    const NodeId nodes0 = bundle0->synth.graph.numNodes();
    bundle0.reset(); // holding the epoch would block its reclaim below
    const double deltaEdgeFraction =
        edges0 ? double(batchEdges) / double(edges0) : 0.0;

    double fullRebuildS = 0.0, inPlacePublishS = 0.0;
    for (int i = 0; i < fullRebuilds; ++i) {
        ServingEngine fresh(opts);
        t0 = Clock::now();
        fresh.publishArtifact(key);
        fullRebuildS += secondsSince(t0);
        fresh.shutdown();

        t0 = Clock::now();
        engine.publishArtifact(key);
        inPlacePublishS += secondsSince(t0);
    }
    fullRebuildS /= std::max(1, fullRebuilds);
    inPlacePublishS /= std::max(1, fullRebuilds);

    // ---- Phase 2: incremental update stream --------------------------
    // First update after a full publish pays the from-scratch forward
    // seeding; keep it out of the steady-state timing.
    {
        auto bundle = engine.cache().peek(key);
        engine.applyUpdate(key,
                           toggleDelta(bundle->synth.graph, batchEdges, 1));
    }

    double sumS = 0.0, maxS = 0.0, sumDirtyFraction = 0.0;
    size_t sumRecomputed = 0, applied = 0;
    uint64_t lastDynEpoch = 0;
    for (int i = 0; i < updates; ++i) {
        auto bundle = engine.cache().peek(key);
        dyn::GraphDelta d = toggleDelta(bundle->synth.graph, batchEdges,
                                        uint64_t(1000 + i));
        ServingEngine::UpdateResult r = engine.applyUpdate(key, d);
        if (r.noop)
            continue;
        ++applied;
        sumS += r.seconds;
        maxS = std::max(maxS, r.seconds);
        sumDirtyFraction += double(r.dirtyRows) / double(nodes0);
        sumRecomputed += r.recomputedRows;
        lastDynEpoch = r.dynEpoch;
    }
    GCOD_ASSERT(applied > 0, "update stream applied no deltas");
    const double meanUpdateS = sumS / double(applied);
    const double speedup = meanUpdateS > 0.0 ? fullRebuildS / meanUpdateS
                                             : 0.0;
    const double meanDirtyFraction = sumDirtyFraction / double(applied);

    // The last phase-2 epoch's fp32 logits came from dirty-row
    // recomputes stacked on one full pass; a fresh full pass over the
    // same epoch must reproduce them byte for byte.
    bool logitsMatch = true;
    if (check != 0) {
        auto bundle = engine.cache().peek(key);
        const Matrix &stored = bundle->storedLogits.at(32);
        const Matrix full =
            referenceForward(bundle->hostRecipe, bundle->hostFeatures);
        logitsMatch = sameBytes(stored, full);
    }

    std::vector<FamilyStream> families;
    {
        auto bundle = engine.cache().peek(key);
        families = incrementalByFamily(
            bundle->synth.graph, bundle->hostFeatures,
            int(bundle->spec.layers.back().outDim), updates, batchEdges,
            check != 0);
    }

    // ---- Phase 3: concurrent serving under a live update stream ------
    std::atomic<bool> stop{false};
    std::atomic<int> swaps{0};
    std::thread writer([&] {
        uint64_t seed = 5000;
        while (!stop.load()) {
            auto bundle = engine.cache().peek(key);
            if (bundle != nullptr) {
                auto r = engine.applyUpdate(
                    key, toggleDelta(bundle->synth.graph, batchEdges,
                                     seed++));
                if (!r.noop)
                    swaps.fetch_add(1);
            }
        }
    });

    // Pace the submissions so the serve window genuinely overlaps
    // several epoch swaps instead of finishing between two of them.
    t0 = Clock::now();
    std::vector<std::future<InferenceReply>> futures;
    futures.reserve(size_t(requests));
    for (int i = 0; i < requests; ++i) {
        futures.push_back(engine.submit({0, dataset, "GCN", 0}));
        if (i % 16 == 15)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    engine.drain();
    double serveS = secondsSince(t0);
    stop.store(true);
    writer.join();

    size_t ok = 0;
    for (auto &f : futures)
        ok += f.get().ok();
    const size_t dropped =
        size_t(requests) - ok + engine.stats().failed() +
        engine.stats().shed();

    engine.drain();
    size_t reclaimed = engine.reclaimRetiredArtifacts();
    size_t retiredLeft = engine.cache().retiredCount();
    engine.shutdown();

    // ---- report ------------------------------------------------------
    Table t("Streamed updates | incremental recompute vs full rebuild (" +
            dataset + ")");
    t.header({"metric", "value"});
    t.row({"graph nodes / edges", std::to_string(nodes0) + " / " +
                                      std::to_string(edges0)});
    t.row({"delta size (edges)", std::to_string(batchEdges) + " (" +
                                     formatPercent(deltaEdgeFraction) +
                                     " of edges)"});
    t.row({"cold build", formatNumber(coldBuildS * 1e3) + " ms"});
    t.row({"full rebuild (mean)", formatNumber(fullRebuildS * 1e3) +
                                      " ms"});
    t.row({"in-place publish (mean)",
           formatNumber(inPlacePublishS * 1e3) + " ms"});
    t.row({"incremental update (mean)", formatNumber(meanUpdateS * 1e3) +
                                            " ms"});
    t.row({"incremental update (max)", formatNumber(maxS * 1e3) + " ms"});
    t.row({"speedup vs full rebuild", formatSpeedup(speedup)});
    t.row({"staleness (mean dirty rows)",
           formatPercent(meanDirtyFraction)});
    t.row({"dyn epochs stacked", std::to_string(lastDynEpoch)});
    t.print(std::cout);

    Table f("Streamed updates | IncrementalForward::applied() per family "
            "(1 thread)");
    f.header({"family", "median ms", "mean rows", "updates", "logits"});
    for (const FamilyStream &fs : families)
        f.row({fs.family, formatNumber(fs.medianMs),
               formatNumber(fs.meanRows), std::to_string(fs.updates),
               check != 0 ? (fs.logitsMatch ? "match" : "DIFFER")
                          : "unchecked"});
    f.print(std::cout);

    Table c("Streamed updates | serving during a live update stream");
    c.header({"metric", "value"});
    c.row({"requests", std::to_string(requests)});
    c.row({"completed ok", std::to_string(ok)});
    c.row({"dropped (failed+shed)", std::to_string(dropped)});
    c.row({"epoch swaps during window", std::to_string(swaps.load())});
    c.row({"serve window", formatNumber(serveS * 1e3) + " ms"});
    c.row({"throughput", formatNumber(serveS > 0.0 ? double(ok) / serveS
                                                   : 0.0) +
                             " req/s"});
    c.row({"retired epochs reclaimed", std::to_string(reclaimed)});
    c.row({"retired epochs leaked", std::to_string(retiredLeft)});
    c.print(std::cout);

    JsonEmitter json;
    json.meta()
        .set("bench", "stream_updates")
        .set("dataset", dataset)
        .set("threads", currentThreads())
        .set("nodes", int64_t(nodes0))
        .set("edges", int64_t(edges0));
    json.add("full_rebuild")
        .set("cold_build_s", coldBuildS)
        .set("rebuild_s", fullRebuildS)
        .set("in_place_publish_s", inPlacePublishS)
        .set("rebuilds_timed", fullRebuilds);
    json.add("incremental")
        .set("updates", int64_t(applied))
        .set("dyn_epoch", int64_t(lastDynEpoch))
        .set("batch_edges", batchEdges)
        .set("delta_edge_fraction", deltaEdgeFraction)
        .set("mean_update_s", meanUpdateS)
        .set("max_update_s", maxS)
        .set("speedup_vs_full_rebuild", speedup)
        .set("mean_dirty_row_fraction", meanDirtyFraction)
        .set("mean_recomputed_rows",
             double(sumRecomputed) / double(applied));
    JsonEmitter::Entry &byFamily = json.add("incremental_by_family");
    byFamily.set("threads", int64_t(1)).set("batch_edges", batchEdges);
    for (const FamilyStream &fs : families)
        byFamily.set(fs.family + "_applied_ms", fs.medianMs)
            .set(fs.family + "_mean_rows", fs.meanRows);
    json.add("concurrent_serving")
        .set("requests", requests)
        .set("completed_ok", int64_t(ok))
        .set("dropped", int64_t(dropped))
        .set("swaps", swaps.load())
        .set("serve_s", serveS)
        .set("throughput_rps", serveS > 0.0 ? double(ok) / serveS : 0.0)
        .set("retired_reclaimed", int64_t(reclaimed))
        .set("retired_leaked", int64_t(retiredLeft));
    json.writeFile(cfg.getString("out", "BENCH_stream.json"));

    if (check != 0) {
        GCOD_ASSERT(deltaEdgeFraction <= 0.01,
                    "gate requires deltas touching <= 1% of edges; got ",
                    deltaEdgeFraction * 100.0, "% — lower batch_edges");
        GCOD_ASSERT(speedup >= 5.0,
                    "incremental update must be >= 5x faster than a full "
                    "artifact rebuild (got ", speedup, "x)");
        GCOD_ASSERT(dropped == 0,
                    "requests dropped during concurrent epoch swaps: ",
                    dropped);
        GCOD_ASSERT(retiredLeft == 0,
                    "retired epochs leaked after drain: ", retiredLeft);
        for (const FamilyStream &fs : families)
            if (!fs.logitsMatch) {
                std::fprintf(stderr,
                             "FAIL: %s incremental fp32 logits differ from "
                             "a full referenceForward of its last epoch\n",
                             fs.family.c_str());
                return 1;
            }
        if (!logitsMatch) {
            std::fprintf(stderr,
                         "FAIL: incremental fp32 logits of dyn epoch %llu "
                         "differ from a full referenceForward of that "
                         "epoch\n",
                         static_cast<unsigned long long>(lastDynEpoch));
            return 1;
        }
    }
    return 0;
}

/** Microbenchmark: one small-delta applyUpdate() against a warm engine. */
void
BM_ApplyUpdateSmallDelta(benchmark::State &state)
{
    ServeOptions opts;
    opts.backends = {"GCoD"};
    opts.workers = 1;
    ServingEngine engine(opts);
    ArtifactKey key = engine.keyFor("Cora", "GCN");
    engine.applyUpdate(key, dyn::GraphDelta{}); // warm the artifact
    uint64_t seed = 1;
    for (auto _ : state) {
        auto bundle = engine.cache().peek(key);
        benchmark::DoNotOptimize(engine.applyUpdate(
            key, toggleDelta(bundle->synth.graph, 4, seed++)));
    }
    engine.reclaimRetiredArtifacts();
}
BENCHMARK(BM_ApplyUpdateSmallDelta);

} // namespace

int
main(int argc, char **argv)
{
    int status = 0;
    int rc = benchMain(argc, argv,
                       [&](Config &cfg) { status = streamUpdates(cfg); });
    return rc != 0 ? rc : status;
}
