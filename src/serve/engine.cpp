#include "serve/engine.hpp"

#include <algorithm>
#include <cstring>

#include "nn/neighbor_sampler.hpp"
#include "serve/incremental.hpp"
#include "sim/logging.hpp"
#include "sim/parallel.hpp"
#include "store/artifact_io.hpp"
#include "store/file.hpp"

namespace gcod::serve {

namespace {

/**
 * Last explicit kernelThreads any engine in this process applied. The
 * kernel pool is process-wide, so two engines with different nonzero
 * values silently race (last writer wins); surface that instead of
 * leaving it a debugging surprise. See docs/performance.md.
 */
std::atomic<int> lastKernelThreads{0};

/**
 * Chip list of the sharded fleet (empty when sharding is off): the
 * configured shardBackends, else `shards` copies of the first backend.
 * Single source of truth for both the scheduler construction and the
 * quant-bits derivation, so the precisions artifacts pre-quantize for
 * always match what the fleet executes.
 */
std::vector<std::string>
fleetChips(const ServeOptions &opts)
{
    if (opts.shards <= 1)
        return {};
    if (!opts.shardBackends.empty())
        return opts.shardBackends;
    if (opts.backends.empty())
        return {};
    return std::vector<std::string>(size_t(opts.shards),
                                    opts.backends.front());
}

/**
 * Distinct sub-32-bit operand precisions across the engine's backends
 * and shard fleet, read from the built platform configurations (the
 * registry's `bits` overrides land there). These are the precisions
 * every artifact pre-quantizes host execution packs for.
 */
std::vector<int>
servedQuantBits(const ServeOptions &opts)
{
    PlatformRegistry &reg = PlatformRegistry::instance();
    std::vector<int> bits;
    for (const auto &s : opts.backends) {
        int b = reg.create(s)->config().dataBits;
        if (b > 0 && b < 32)
            bits.push_back(b);
    }
    // The fleet executes at its wire precision (the widest chip), not
    // per chip — so only that one precision needs a pack; a mixed
    // full/8-bit fleet runs fp32 and pre-quantizes nothing.
    int fleet_bits = 0;
    for (const auto &s : fleetChips(opts))
        fleet_bits =
            std::max(fleet_bits, reg.create(s)->config().dataBits);
    if (fleet_bits > 0 && fleet_bits < 32)
        bits.push_back(fleet_bits);
    std::sort(bits.begin(), bits.end());
    bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
    return bits;
}

/**
 * Precision a batch over @p b executes at when the serving backend's
 * operand width is @p bits: the matching quantized pack when one was
 * built, fp32 otherwise; 0 when the bundle has no host execution.
 */
int
effectiveExecBits(const ArtifactBundle &b, int bits)
{
    if (!b.hasHostExec())
        return 0;
    return bits < 32 && b.quantized.count(bits) ? bits : 32;
}

/**
 * Wrap @p fresh with the persistent-store fast path: try a store load
 * first (mmap-backed, milliseconds instead of a pipeline build), fall
 * back to the full build on any integrity failure, and save fresh
 * builds back so the next process warm-starts. A corrupt store file
 * (real CRC/validation failure, or an injected FaultKind::StoreCorrupt)
 * is quarantined — moved to "<path>.quarantined" — so the rebuild's
 * re-save publishes a clean file instead of the next load tripping over
 * the same bytes. Serving never goes down over a stale or corrupt
 * artifact file; @p stats (when non-null) counts the quarantines.
 */
ArtifactCache::Builder
storeAwareBuilder(ArtifactCache::Builder fresh, std::string dir,
                  ReorderOptions shard_reorder, fault::FaultPlan *faults,
                  ServerStats *stats, obs::TraceRecorder *trace)
{
    if (dir.empty()) {
        if (trace == nullptr)
            return fresh;
        // No store: still trace the pipeline build itself.
        return [fresh = std::move(fresh),
                trace](const ArtifactKey &key)
                   -> std::shared_ptr<const ArtifactBundle> {
            obs::ScopedSpan build(trace, obs::kTraceRequests,
                                  "artifact.build", "store");
            if (build.active())
                build.attr("artifact", key.toString());
            return fresh(key);
        };
    }
    return [fresh = std::move(fresh), dir = std::move(dir), shard_reorder,
            faults, stats, trace](const ArtifactKey &key)
               -> std::shared_ptr<const ArtifactBundle> {
        std::string path = store::artifactStorePath(dir, key);
        if (store::fileExists(path)) {
            obs::ScopedSpan load(trace, obs::kTraceRequests,
                                 "store.load", "store");
            if (load.active())
                load.attr("artifact", key.toString());
            std::string corrupt;
            if (faults != nullptr &&
                faults->shouldInject(fault::FaultKind::StoreCorrupt,
                                     "store.load")) {
                corrupt = "injected read corruption";
            } else {
                try {
                    store::LoadedArtifact loaded =
                        store::loadArtifactBundle(path);
                    if (loaded.bundle->key == key) {
                        load.attr("outcome", "loaded");
                        return loaded.bundle;
                    }
                    // Not corruption — a stale file for another key
                    // (hash collision in the file name); the re-save
                    // below simply overwrites it.
                    load.attr("outcome", "stale");
                    warn("artifact store file ", path,
                         " holds a different key; rebuilding");
                } catch (const std::runtime_error &e) {
                    corrupt = e.what();
                }
            }
            if (!corrupt.empty()) {
                load.attr("outcome", "quarantined");
                if (store::quarantineFile(path))
                    warn("artifact store load of ", path, " failed (",
                         corrupt, "); quarantined to ",
                         store::quarantinePath(path),
                         " and rebuilding from the pipeline");
                else
                    warn("artifact store load of ", path, " failed (",
                         corrupt, ") and the file could not be moved "
                                  "aside; rebuilding from the pipeline");
                if (stats != nullptr)
                    stats->recordQuarantine();
            }
        }
        std::shared_ptr<const ArtifactBundle> bundle;
        {
            obs::ScopedSpan build(trace, obs::kTraceRequests,
                                  "artifact.build", "store");
            if (build.active())
                build.attr("artifact", key.toString());
            bundle = fresh(key);
        }
        try {
            store::saveArtifactBundle(path, *bundle, shard_reorder);
        } catch (const std::runtime_error &e) {
            // Persistence is an optimization; a full disk or read-only
            // store directory must not fail the build that succeeded.
            warn("artifact store save to ", path, " failed: ", e.what());
        }
        return bundle;
    };
}

/**
 * True when a request of @p tier must be shed at queue depth @p depth.
 * Thresholds nest: the global limit sheds everything, the standard
 * limit spares only Latency, the best-effort limit sheds only
 * BestEffort — so load pressure always drops the cheapest promise first.
 */
bool
shouldShed(const AdmissionOptions &a, SloTier tier, size_t depth)
{
    if (a.maxQueueDepth != 0 && depth >= a.maxQueueDepth)
        return true;
    if (tier != SloTier::Latency && a.standardMaxDepth != 0 &&
        depth >= a.standardMaxDepth)
        return true;
    return tier == SloTier::BestEffort && a.bestEffortMaxDepth != 0 &&
           depth >= a.bestEffortMaxDepth;
}

/**
 * Row of @p node in a stand-in of @p rows rows: requests address the
 * published node space, and the stand-in folds them onto its own rows.
 */
NodeId
foldedRow(NodeId node, int64_t rows)
{
    return NodeId(((int64_t(node) % rows) + rows) % rows);
}

} // namespace

ServingEngine::ServingEngine(ServeOptions opts)
    : opts_(std::move(opts)), optionsHash_(hashGcodOptions(opts_.gcod)),
      quantBits_(servedQuantBits(opts_)),
      freshBuilder_(makeArtifactBuilder(opts_.gcod, opts_.artifactScale,
                                        opts_.artifactSeed, opts_.shards,
                                        opts_.shardMinNodes, quantBits_)),
      fault_(std::make_shared<fault::FaultPlan>(opts_.fault)),
      cache_(opts_.cacheCapacity,
             storeAwareBuilder(freshBuilder_, opts_.storeDir,
                               opts_.gcod.reorder, fault_.get(), &stats_,
                               &trace_)),
      router_(opts_.backends, opts_.health),
      trace_(obs::TraceRecorder::levelFromEnv(opts_.traceLevel)),
      stats_(metrics_), queue_(opts_.batching)
{
    GCOD_ASSERT(opts_.workers >= 1, "engine needs at least one worker");
    GCOD_ASSERT(opts_.retry.maxAttempts >= 1,
                "a batch needs at least one dispatch attempt");
    GCOD_ASSERT(opts_.defaultTimeoutSeconds >= 0.0,
                "negative default deadline makes no sense");
    // Batches execute on the shared kernel pool: artifact builds
    // (reorder/partition) and the dense/sparse kernels they run all go
    // through sim/parallel, so one engine-level knob sizes the pool.
    if (opts_.kernelThreads > 0) {
        int prev = lastKernelThreads.exchange(opts_.kernelThreads);
        if (prev != 0 && prev != opts_.kernelThreads)
            warn("ServeOptions.kernelThreads=", opts_.kernelThreads,
                 " overrides an earlier engine's ", prev,
                 ": the kernel pool is process-wide and the last writer "
                 "wins (docs/performance.md)");
        setThreads(opts_.kernelThreads);
    }
    if (opts_.shards > 1) {
        shard::ShardScheduler::Options sopts;
        sopts.chips = fleetChips(opts_);
        shardScheduler_ =
            std::make_unique<shard::ShardScheduler>(std::move(sopts));
        // The fleet executes (and exchanges halos) at its wire
        // precision: an all-8-bit fleet runs the artifact's int8 pack.
        fleetExecBits_ = shardScheduler_->wireBits();
    }
    queue_.setTrace(&trace_);
    router_.setTrace(&trace_);
    // Unified observability surface: everything a bench or CI check
    // wants lands in one metrics_.snapshot() — the serve.* group
    // (registered by stats_) plus live gauges over the cache, queue,
    // recorder, and the fault-cause taxonomy. Gauges are evaluated at
    // snapshot time, outside the registry lock.
    metrics_.gauge("cache.hit_rate", "artifact cache hit rate",
                   [this] { return cache_.hitRate(); });
    metrics_.gauge("cache.hits", "artifact cache hits",
                   [this] { return double(cache_.hits()); });
    metrics_.gauge("cache.misses", "artifact cache misses (builds)",
                   [this] { return double(cache_.misses()); });
    metrics_.gauge("queue.depth", "requests waiting in the batch queue",
                   [this] { return double(queue_.depth()); });
    metrics_.gauge("engine.pending", "submitted, not yet replied",
                   [this] { return double(pending_.load()); });
    metrics_.gauge("trace.spans", "spans recorded so far",
                   [this] { return double(trace_.size()); });
    metrics_.gauge("trace.dropped_spans",
                   "spans rejected because the buffer was full",
                   [this] { return double(trace_.dropped()); });
    metrics_.gauge("fault.injected.total", "faults injected (all kinds)",
                   [plan = fault_] {
                       return double(plan->injectedCount());
                   });
    for (int k = 0; k < fault::kNumFaultKinds; ++k) {
        auto kind = fault::FaultKind(k);
        metrics_.gauge(std::string("fault.injected.") +
                           fault::faultKindName(kind),
                       "injected faults of this kind",
                       [plan = fault_, kind] {
                           return double(plan->injectedCount(kind));
                       });
    }
    workers_.reserve(opts_.workers);
    for (size_t i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ServingEngine::~ServingEngine()
{
    shutdown();
}

std::future<InferenceReply>
ServingEngine::submit(InferenceRequest req)
{
    if (req.id == 0)
        req.id = nextId_.fetch_add(1);
    size_t depth = queue_.depth();
    PendingRequest p;
    p.key = ArtifactKey{req.dataset, req.model, optionsHash_};
    p.req = std::move(req);
    // Root span id of this request's causal tree: drawn here, ridden
    // through the queue on the PendingRequest, and recorded as the
    // "request" span when the reply resolves. 0 = tracing off (no id,
    // no allocations).
    p.traceId = trace_.enabled() ? trace_.newId() : 0;
    bool shed = false;
    {
        obs::ScopedSpan admit(&trace_, obs::kTraceRequests, "admission",
                              "serve", p.traceId);
        shed = shouldShed(opts_.admission, p.req.tier, depth);
        if (admit.active())
            admit.attr("request", p.req.id)
                .attr("tier", sloTierName(p.req.tier))
                .attr("queue_depth", uint64_t(depth))
                .attr("outcome", shed ? "shed" : "admitted");
    }
    p.enqueued = Clock::now();
    std::future<InferenceReply> fut = p.promise.get_future();
    InferenceReply reply;
    if (shed) {
        // Load shed at the door: resolve immediately, count it in the
        // shed bucket only (never completed/failed), touch no queue
        // state. The client sees reply.shed and can back off or retry.
        reply.shed = true;
        reply.error = "shed by admission control";
        resolve(p, std::move(reply), "shed");
        return fut;
    }
    pending_.fetch_add(1);
    if (!queue_.push(p)) {
        // Shut down (or racing with shutdown): reject through the future
        // rather than throwing into the client thread.
        pending_.fetch_sub(1);
        reply.error = "serving engine is shut down";
        resolve(p, std::move(reply), "rejected");
    }
    return fut;
}

void
ServingEngine::resolve(PendingRequest &p, InferenceReply reply,
                       const char *outcome, const obs::ScopedSpan *batch)
{
    reply.id = p.req.id;
    reply.tier = p.req.tier;
    if (std::strcmp(outcome, "rejected") != 0)
        stats_.recordReply(reply);
    // The root span of the request's causal tree (submit -> resolution),
    // recorded before the promise is fulfilled.
    if (p.traceId != 0 && trace_.enabled()) {
        obs::TraceSpan s;
        s.id = p.traceId;
        s.name = "request";
        s.cat = "serve";
        s.startNs = trace_.toNs(p.enqueued);
        s.durNs = trace_.nowNs() - s.startNs;
        s.tid = obs::TraceRecorder::threadId();
        s.attrs.emplace_back("request", std::to_string(p.req.id));
        s.attrs.emplace_back("tier", sloTierName(p.req.tier));
        if (batch != nullptr)
            s.attrs.emplace_back("artifact", p.key.toString());
        s.attrs.emplace_back("outcome", outcome);
        if (!reply.backend.empty())
            s.attrs.emplace_back("backend", reply.backend);
        if (reply.executedBits != 0)
            s.attrs.emplace_back("bits",
                                 std::to_string(reply.executedBits));
        if (batch != nullptr && batch->id() != 0)
            s.attrs.emplace_back("batch_span", std::to_string(batch->id()));
        trace_.record(std::move(s));
    }
    p.promise.set_value(std::move(reply));
}

void
ServingEngine::workerLoop()
{
    while (auto batch = queue_.pop())
        runBatch(std::move(*batch));
}

void
ServingEngine::runBatch(Batch &&batch)
{
    // Stamped after the cache lookup so a cold-start artifact build
    // counts as queueing delay in the reported latency.
    Clock::time_point dispatched;
    const size_t batchTotal = batch.size();
    InferenceReply base;
    base.batchSize = batchTotal;
    base.tier = batch.tier;

    // The batch stage span, parented under the FIRST rider's root so a
    // single-request trace forms one connected tree; other riders link
    // in via the batch_span attr on their own request spans.
    obs::ScopedSpan bspan(&trace_, obs::kTraceRequests, "batch", "serve",
                          batch.requests.empty()
                              ? 0
                              : batch.requests.front().traceId);
    if (bspan.active())
        bspan.attr("artifact", batch.key.toString())
            .attr("size", uint64_t(batchTotal))
            .attr("tier", sloTierName(batch.tier));

    // Resolve every request whose wall-clock deadline has expired with a
    // timedOut reply, individually and immediately — an expired request
    // never rides a retry it can no longer benefit from, and is never
    // silently dropped. The survivors stay in the batch. Called at
    // dispatch and again before each retry.
    auto expireRequests = [&] {
        Clock::time_point now = Clock::now();
        size_t kept = 0;
        for (size_t i = 0; i < batch.requests.size(); ++i) {
            PendingRequest &p = batch.requests[i];
            double limit = p.req.timeoutSeconds > 0.0
                               ? p.req.timeoutSeconds
                               : opts_.defaultTimeoutSeconds;
            double waited =
                std::chrono::duration<double>(now - p.enqueued).count();
            if (limit <= 0.0 || waited < limit) {
                if (kept != i)
                    batch.requests[kept] = std::move(batch.requests[i]);
                ++kept;
                continue;
            }
            InferenceReply reply;
            reply.batchSize = batchTotal;
            reply.queueSeconds = waited;
            reply.latencySeconds = waited;
            reply.timedOut = true;
            reply.error = "deadline exceeded";
            resolve(p, std::move(reply), "timeout", &bspan);
        }
        batch.requests.resize(kept);
    };

    RouteDecision route;
    DetailedResult result;
    std::shared_ptr<const Matrix> logits;
    // Kept past the try so sampled riders (sampleFanout > 0) can run
    // their own per-request pass in the reply loop below.
    ArtifactCache::Lookup found;
    try {
        obs::ScopedSpan aspan(&trace_, obs::kTraceRequests,
                              "artifact.get", "serve", bspan.id());
        found = cache_.get(batch.key);
        if (aspan.active())
            aspan.attr("hit", found.hit ? "true" : "false")
                .attr("version", found.version);
        aspan.finish();
        dispatched = Clock::now();
        base.cacheHit = found.hit;
        expireRequests();
        const ArtifactBundle &bundle = *found.bundle;
        if (batch.requests.empty()) {
            // Every rider timed out (e.g. waiting on a cold build);
            // nothing left to execute.
        } else if (bundle.sharded && shardScheduler_) {
            // Large-graph artifact: one pass over the whole fleet —
            // every chip works the same batch, so no router competition
            // and the reply's backend is the fleet label. The fleet
            // executes the stand-in for real (no extrapolation inside
            // the scheduler), but serving stats must stay in one unit
            // system with the single-chip path, which reports costs at
            // the dataset's published size — so apply the same linear
            // size extrapolation here. The schedule is deterministic in
            // (plan, units, spec, density, fleet), all fixed per epoch,
            // so each epoch prices it once.
            EpochMemo &memo = *found.memo;
            double seconds = -1.0;
            {
                std::lock_guard<std::mutex> lock(memo.mu);
                seconds = memo.fleetSeconds;
            }
            const bool memoHit = seconds >= 0.0;
            obs::ScopedSpan sspan(&trace_, obs::kTraceRequests,
                                  "shard.schedule", "serve", bspan.id());
            if (!memoHit) {
                shard::ShardScheduleResult sched =
                    shardScheduler_->schedule(
                        bundle.sharded->plan, bundle.sharded->units,
                        bundle.spec, bundle.profile.featureDensity);
                seconds = sched.latencySeconds * bundle.raw.sizeScale();
                std::lock_guard<std::mutex> lock(memo.mu);
                memo.fleetSeconds = seconds;
            }
            if (sspan.active())
                sspan.attr("memo", memoHit ? "hit" : "miss")
                    .attr("fleet", shardScheduler_->fleetName())
                    .attr("seconds", seconds);
            sspan.finish();
            base.backend = shardScheduler_->fleetName();
            base.serviceSeconds = seconds;
            base.executedBits =
                effectiveExecBits(bundle, fleetExecBits_);
            logits = logitsFor(found, base.executedBits, bspan.id());
            stats_.recordBatch(base.backend, batch.size(), seconds,
                               seconds, base.executedBits);
        } else {
            // Single-chip path with recovery: an attempt whose backend
            // execution fails (injected BackendFailure, or a real
            // simulate() throw) feeds the circuit breaker and is
            // retried after exponential backoff; re-routing through the
            // health-gated choose() is what fails the batch over to the
            // next-cheapest healthy backend. Deadlines are re-checked
            // before every retry so expired riders resolve instead of
            // burning backoff they cannot use.
            route = routeBatch(found, batch.tier, bspan.id());
            const std::string firstBackend = route.name;
            int attempts = 0;
            for (;;) {
                ++attempts;
                obs::ScopedSpan att(&trace_, obs::kTraceRequests,
                                    "execute.attempt", "serve",
                                    bspan.id());
                if (att.active())
                    att.attr("backend", route.name)
                        .attr("attempt", attempts);
                std::string failure;
                if (fault_->enabled() &&
                    fault_->shouldInject(fault::FaultKind::BackendFailure,
                                         "backend." + route.name)) {
                    failure = "injected backend failure";
                    // The failed attempt still occupied the chip:
                    // charge its virtual work and depth like any pass.
                    router_.beginDispatch(route.backend,
                                          route.estimatedSeconds);
                    router_.endDispatch(route.backend);
                } else {
                    router_.beginDispatch(route.backend,
                                          route.estimatedSeconds);
                    try {
                        result =
                            router_.model(route.backend)
                                .simulate(bundle.spec,
                                          router_.inputFor(route.backend,
                                                           bundle));
                    } catch (const std::runtime_error &e) {
                        failure = e.what();
                    }
                    router_.endDispatch(route.backend);
                }
                att.attr("outcome", failure.empty() ? "ok" : "failed");
                att.finish();
                if (failure.empty()) {
                    router_.recordSuccess(route.backend);
                    break;
                }
                stats_.recordBackendFailure(route.name);
                router_.recordFailure(route.backend);
                if (attempts >= opts_.retry.maxAttempts) {
                    base.error = "backend " + route.name + " failed " +
                                 std::to_string(attempts) +
                                 " attempts: " + failure;
                    break;
                }
                double backoff = std::min(
                    opts_.retry.backoffMaxSeconds,
                    opts_.retry.backoffBaseSeconds *
                        double(uint64_t(1)
                               << std::min(attempts - 1, 30)));
                if (backoff > 0.0) {
                    obs::ScopedSpan bo(&trace_, obs::kTraceRequests,
                                       "retry.backoff", "serve",
                                       bspan.id());
                    bo.attr("seconds", backoff);
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(backoff));
                }
                expireRequests();
                if (batch.requests.empty()) {
                    // Everyone stopped waiting; retrying would serve
                    // nobody.
                    base.error = "every rider's deadline expired "
                                 "during retry";
                    break;
                }
                route = routeBatch(found, batch.tier, bspan.id());
            }
            if (base.error.empty() && !batch.requests.empty()) {
                base.retries = attempts - 1;
                base.failedOver = route.name != firstBackend;
                base.backend = route.name;
                base.serviceSeconds = result.latencySeconds;
                if (fault_->enabled() &&
                    fault_->shouldInject(fault::FaultKind::BackendSlow,
                                         "backend." + route.name)) {
                    // Latency spike, not an error: the pass completed
                    // and its payload is untouched — only the simulated
                    // service time inflates (SLO pressure drill).
                    base.serviceSeconds *= opts_.fault.slowFactor;
                }
                // The route's real host execution: the backend's operand
                // precision (a PlatformRegistry capability) selects the
                // artifact's matching quantized pack — a GCoD@bits=8
                // route runs int8 kernels, not fp32 with a relabeled
                // cost.
                base.executedBits = effectiveExecBits(
                    bundle,
                    router_.model(route.backend).config().dataBits);
                logits = logitsFor(found, base.executedBits, bspan.id());
                stats_.recordBatch(route.name, batch.size(),
                                   route.estimatedSeconds,
                                   base.serviceSeconds,
                                   base.executedBits);
            }
        }
    } catch (const std::runtime_error &e) {
        // Fatal (user-level) errors fail the batch's requests; panics and
        // assertion failures (logic_error) signal internal bugs and
        // propagate, per the sim/logging severity model.
        base.error = e.what();
        dispatched = Clock::now();
    }

    // Record the batch span BEFORE fulfilling any promise: a client that
    // wakes on the reply (drain() included) must already see the full
    // span tree — otherwise the batch span would race the snapshot.
    // bspan.id() stays valid after finish() for the batch_span attrs.
    bspan.attr("outcome", base.error.empty() ? "ok" : "failed");
    bspan.finish();

    auto predictFrom = [](const Matrix &m, NodeId row) {
        const float *lrow = m.row(row);
        int best = 0;
        for (int64_t c = 1; c < m.cols(); ++c)
            if (lrow[c] > lrow[best])
                best = int(c);
        return best;
    };

    for (PendingRequest &p : batch.requests) {
        InferenceReply reply = base;
        reply.queueSeconds =
            std::chrono::duration<double>(dispatched - p.enqueued).count();
        reply.latencySeconds = reply.queueSeconds + reply.serviceSeconds;
        if (p.req.sampleFanout != 0 && reply.ok()) {
            // Sampled rider: its (seed, fanout) pair names a distinct
            // operator set, so the batch's shared full-pass logits do
            // not apply — run its own row pass at the same precision
            // the batch executed at.
            if (p.req.sampleFanout < 0) {
                reply.error = "InferenceRequest.sampleFanout must be >= 0 "
                              "(0 serves the full pass), got " +
                              std::to_string(p.req.sampleFanout);
            } else if (!found.bundle || base.executedBits <= 0 ||
                       !found.bundle->hasHostExec()) {
                reply.error = "sampled serving needs host execution "
                              "state, which this artifact lacks";
            } else if (!supportsSampledExecution(found.bundle->spec)) {
                reply.error =
                    "model family '" + found.bundle->spec.name +
                    "' cannot serve sampled neighborhoods: only Mean-"
                    "aggregation stacks (GraphSAGE, GCN) support "
                    "fanout sampling";
            } else {
                try {
                    Matrix row = sampledLogits(
                        found, base.executedBits, p.req.sampleFanout,
                        p.req.sampleSeed,
                        foldedRow(p.req.node,
                                  found.bundle->hostFeatures.rows()),
                        p.traceId);
                    reply.prediction = predictFrom(row, 0);
                } catch (const std::runtime_error &e) {
                    reply.error = e.what();
                }
            }
        } else if (logits) {
            reply.prediction =
                predictFrom(*logits, foldedRow(p.req.node, logits->rows()));
        }
        const char *outcome = reply.ok() ? "ok" : "failed";
        if (p.traceId != 0 && trace_.enabled())
            trace_.instant("reply", "serve", p.traceId,
                           {{"prediction",
                             std::to_string(reply.prediction)},
                            {"outcome", outcome}});
        resolve(p, std::move(reply), outcome, &bspan);
    }

    // Timed-out riders were resolved (but not uncounted) along the way;
    // the whole original batch leaves pending_ here, in one step.
    uint64_t left = pending_.fetch_sub(batchTotal) - batchTotal;
    if (left == 0) {
        std::lock_guard<std::mutex> lock(drainMu_);
        drainCv_.notify_all();
    }
}

RouteDecision
ServingEngine::routeBatch(const ArtifactCache::Lookup &epoch, SloTier tier,
                          uint64_t trace_parent)
{
    obs::ScopedSpan rspan(&trace_, obs::kTraceRequests, "route", "serve",
                          trace_parent);
    // Priced once per epoch, so every later batch routes without a
    // kernel-pool region that could queue behind unrelated kernels.
    EpochMemo &memo = *epoch.memo;
    std::unique_lock<std::mutex> lock(memo.mu);
    if (memo.routeEstimates.empty()) {
        lock.unlock();
        std::vector<double> priced = router_.estimateAll(*epoch.bundle);
        lock.lock();
        if (memo.routeEstimates.empty())
            memo.routeEstimates = std::move(priced);
    }
    lock.unlock();
    // Set once under the lock and never changed after: read unlocked.
    RouteDecision route = router_.choose(memo.routeEstimates, tier);
    if (rspan.active())
        rspan.attr("backend", route.name)
            .attr("estimate_s", route.estimatedSeconds)
            .attr("probe", route.probe ? "true" : "false");
    return route;
}

std::shared_ptr<const Matrix>
ServingEngine::logitsFor(const ArtifactCache::Lookup &epoch, int bits,
                         uint64_t trace_parent)
{
    const std::shared_ptr<const ArtifactBundle> &bundle = epoch.bundle;
    if (bits <= 0 || !bundle->hasHostExec())
        return nullptr;
    obs::ScopedSpan espan(&trace_, obs::kTraceRequests, "host.exec",
                          "serve", trace_parent);
    espan.attr("bits", bits);
    if (auto it = bundle->storedLogits.find(bits);
        it != bundle->storedLogits.end()) {
        // Warm start: the store already carries this precision's logits.
        // The aliasing shared_ptr keeps the whole bundle (and the mmap
        // behind it) alive for as long as anyone holds the matrix.
        espan.attr("source", "store");
        return std::shared_ptr<const Matrix>(bundle, &it->second);
    }
    EpochMemo &memo = *epoch.memo;
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        auto it = memo.logits.find(bits);
        if (it != memo.logits.end()) {
            espan.attr("source", "memo");
            return it->second;
        }
    }
    espan.attr("source", "computed");
    // Compute outside the lock: racing workers produce bit-identical
    // matrices (integer kernels + deterministic fp32 path), so a
    // duplicated cold pass is harmless.
    const QuantizedGnn *q =
        bits < 32 ? &bundle->quantized.at(bits) : nullptr;
    Matrix out;
    if (bundle->sharded) {
        // Sharded execution under the engine's fault plan: injected halo
        // drops make the affected shards re-execute, which is invisible
        // in the logits (bit-identical stitch) and visible in the stats.
        shard::ShardExecStats sstats;
        obs::TraceCtx tctx{&trace_, espan.id()};
        out = shard::shardedForward(
            bundle->sharded->plan, bundle->hostRecipe, bundle->hostFeatures,
            q, fault_->enabled() ? fault_.get() : nullptr, &sstats, &tctx);
        stats_.recordShardReexecutions(sstats.reexecutions);
    } else if (q != nullptr) {
        out = quantizedForwardMixed(*q, bundle->hostFeatures);
    } else {
        out = referenceForward(bundle->hostRecipe, bundle->hostFeatures);
    }
    auto computed = std::make_shared<const Matrix>(std::move(out));
    std::lock_guard<std::mutex> lock(memo.mu);
    return memo.logits.emplace(bits, std::move(computed)).first->second;
}

Matrix
ServingEngine::sampledLogits(const ArtifactCache::Lookup &epoch, int bits,
                             int fanout, uint64_t seed, NodeId target,
                             uint64_t trace_parent)
{
    const ArtifactBundle &bundle = *epoch.bundle;
    obs::ScopedSpan span(&trace_, obs::kTraceRequests,
                         "host.exec.sampled", "serve", trace_parent);
    if (span.active())
        span.attr("bits", bits)
            .attr("fanout", uint64_t(fanout))
            .attr("seed", seed);
    size_t rows = 0;
    Matrix out;
    if (bits < 32) {
        bool hit = false;
        std::shared_ptr<const SampledQuantMemo> memo =
            sampledMemoFor(epoch, bits, fanout, span.id(), hit);
        span.attr("memo", hit ? "hit" : "built");
        out = sampledQuantizedForwardRow(bundle.quantized.at(bits), *memo,
                                         bundle.synth.graph,
                                         bundle.hostFeatures, seed, target,
                                         &rows);
    } else {
        out = sampledForwardRow(bundle.hostRecipe, bundle.synth.graph,
                                bundle.hostFeatures, fanout, seed, target,
                                &rows);
    }
    span.attr("rows", uint64_t(rows));
    return out;
}

std::shared_ptr<const SampledQuantMemo>
ServingEngine::sampledMemoFor(const ArtifactCache::Lookup &epoch, int bits,
                              int fanout, uint64_t trace_parent, bool &hit)
{
    const ArtifactBundle &bundle = *epoch.bundle;
    EpochMemo &memo = *epoch.memo;
    const std::pair<int, int> key{bits, fanout};
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        auto it = memo.sampled.find(key);
        hit = it != memo.sampled.end();
        if (hit)
            return it->second;
    }
    // Built outside the lock: racing riders build identical memos.
    std::shared_ptr<const SampledQuantMemo> built;
    {
        obs::ScopedSpan span(&trace_, obs::kTraceRequests,
                             "sampled.memo.build", "serve", trace_parent);
        built = std::make_shared<const SampledQuantMemo>(
            buildSampledQuantMemo(bundle.quantized.at(bits),
                                  bundle.synth.graph, bundle.hostFeatures,
                                  fanout));
        if (span.active())
            span.attr("hubs", uint64_t(built->hubs.size()));
    }
    std::lock_guard<std::mutex> lock(memo.mu);
    if (auto it = memo.sampled.find(key); it != memo.sampled.end())
        return it->second;
    if (memo.sampled.size() >= EpochMemo::kMaxSampledMemos)
        memo.sampled.clear();
    return memo.sampled.emplace(key, std::move(built)).first->second;
}

std::shared_ptr<const Matrix>
ServingEngine::peekLogits(const ArtifactKey &key, int bits)
{
    ArtifactCache::Lookup found = cache_.get(key);
    return logitsFor(found, effectiveExecBits(*found.bundle, bits));
}

uint64_t
ServingEngine::publishArtifact(const ArtifactKey &key)
{
    // Rebuild through the full pipeline — hot swap exists to pick up
    // state the store copy by definition does not have yet.
    return publishArtifact(key, freshBuilder_(key));
}

uint64_t
ServingEngine::publishArtifact(const ArtifactKey &key,
                               std::shared_ptr<const ArtifactBundle> bundle)
{
    uint64_t version = cache_.publish(key, std::move(bundle));
    if (trace_.enabled())
        trace_.instant("artifact.publish", "store", 0,
                       {{"artifact", key.toString()},
                        {"version", std::to_string(version)}});
    return version;
}

bool
ServingEngine::saveArtifact(const ArtifactKey &key)
{
    if (opts_.storeDir.empty())
        return false;
    ArtifactCache::Lookup epoch = cache_.peekEpoch(key);
    if (epoch.bundle == nullptr)
        return false;
    // Hand the store every logit matrix of the resident epoch's memo, so
    // the next process skips even the first execution pass.
    std::map<int, Matrix> logits;
    {
        std::lock_guard<std::mutex> lock(epoch.memo->mu);
        for (const auto &[bits, m] : epoch.memo->logits)
            logits.emplace(bits, *m);
    }
    store::saveArtifactBundle(store::artifactStorePath(opts_.storeDir, key),
                              *epoch.bundle, opts_.gcod.reorder, logits);
    return true;
}

size_t
ServingEngine::reclaimRetiredArtifacts()
{
    return cache_.reclaimRetired();
}

ServingEngine::UpdateResult
ServingEngine::applyUpdate(const ArtifactKey &key,
                           const dyn::GraphDelta &delta)
{
    // Cold keys build (or store-load) first; the update then applies to
    // a real epoch instead of special-casing an absent one.
    obs::ScopedSpan uspan(&trace_, obs::kTraceRequests, "update.apply",
                          "serve");
    if (uspan.active())
        uspan.attr("artifact", key.toString());
    ArtifactCache::Lookup found = cache_.get(key);

    UpdateBuildStats bs;
    obs::ScopedSpan build(&trace_, obs::kTraceRequests, "update.build",
                          "serve", uspan.id());
    std::shared_ptr<const ArtifactBundle> next = applyDeltaToBundle(
        found.bundle, delta, opts_.artifactSeed, opts_.gcod.reorder,
        opts_.shardRebaseImbalance, &bs);
    if (build.active())
        build.attr("dirty_rows", uint64_t(bs.dirtyRows))
            .attr("recomputed_rows", uint64_t(bs.recomputedRows))
            .attr("rebased", bs.rebased ? "true" : "false");
    build.finish();
    if (uspan.active())
        uspan.attr("noop", next == found.bundle ? "true" : "false");

    UpdateResult r;
    r.dynEpoch = bs.dynEpoch;
    r.seconds = bs.seconds;
    r.touched = bs.touched;
    r.dirtyRows = bs.dirtyRows;
    r.recomputedRows = bs.recomputedRows;
    r.migrations = bs.migrations;
    r.reassigned = bs.reassigned;
    r.affectedShards = bs.affectedShards;
    r.rebased = bs.rebased;
    if (next == found.bundle) {
        r.noop = true;
        r.version = found.version;
        return r;
    }
    r.version = publishArtifact(key, std::move(next));
    return r;
}

void
ServingEngine::drain()
{
    // Re-flush on a short period: a submit() may have counted itself in
    // pending_ but not yet landed in the queue when flush() ran, and
    // under FixedSize batching its partial group would otherwise wait
    // for a full batch that never comes.
    std::unique_lock<std::mutex> lock(drainMu_);
    while (pending_.load() != 0) {
        lock.unlock();
        queue_.flush();
        lock.lock();
        drainCv_.wait_for(lock, std::chrono::milliseconds(1),
                          [this] { return pending_.load() == 0; });
    }
}

void
ServingEngine::shutdown()
{
    if (stopped_.exchange(true))
        return;
    queue_.close();
    for (auto &w : workers_)
        w.join();
    // pending_ may transiently be nonzero here: a racing submit() that
    // counted itself before the close rejects its own request (push
    // returns false) and decrements on its own thread.
}

size_t
ServingEngine::pending() const
{
    return pending_.load();
}

} // namespace gcod::serve
