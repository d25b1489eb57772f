/**
 * @file
 * The batched multi-backend GCN inference serving engine.
 *
 * Request lifecycle:
 *
 *   submit() -> BatchQueue (grouped per artifact, deadline-batched)
 *            -> worker thread: ArtifactCache::get (LRU, build-on-miss)
 *            -> BackendRouter::choose (cost models + queue depth)
 *            -> AcceleratorModel::simulate (one pass serves the batch)
 *            -> promises fulfilled, ServerStats updated
 *
 * GCN inference is full-batch, so every request in a batch rides one
 * accelerator pass: the co-design artifact AND the execution cost are
 * both amortized. Reported latency combines the real wall-clock batching
 * delay with the simulated accelerator latency of the pass.
 *
 * Request-independent results — host logits per precision, sampled
 * int8 memos, the fleet's schedule seconds and the router's per-backend
 * estimates — are computed once per artifact epoch into the EpochMemo
 * the cache hands out with it (serve/artifact_cache.hpp), and die with
 * that epoch.
 */
#ifndef GCOD_SERVE_ENGINE_HPP
#define GCOD_SERVE_ENGINE_HPP

#include <thread>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/backend_router.hpp"
#include "serve/batch_queue.hpp"
#include "serve/server_stats.hpp"
#include "shard/scheduler.hpp"

namespace gcod::dyn {
class GraphDelta;
}

namespace gcod::serve {

/**
 * Admission-control thresholds, checked against the live batch-queue
 * depth at submit() time. 0 = unlimited (the default: nothing is ever
 * shed). Shedding drops the cheapest SLO promise first: best-effort
 * traffic sheds at `bestEffortMaxDepth`, standard (and best-effort) at
 * `standardMaxDepth`, and only `maxQueueDepth` sheds latency-tier work.
 * Shed requests resolve immediately with reply.shed set and are counted
 * in their own stats bucket — never as completed or failed.
 */
struct AdmissionOptions
{
    /** Depth at which every tier, including Latency, is shed. */
    size_t maxQueueDepth = 0;
    /** Depth at which Standard and BestEffort are shed. */
    size_t standardMaxDepth = 0;
    /** Depth at which BestEffort is shed (drop the cheapest first). */
    size_t bestEffortMaxDepth = 0;
};

/**
 * Retry policy for failed single-chip dispatches. A batch whose backend
 * execution fails is re-routed (the circuit breaker steers it off the
 * failing backend) and re-attempted up to maxAttempts times total, with
 * exponential backoff between attempts. Requests whose deadline expires
 * mid-retry resolve individually with timedOut set; the rest of the
 * batch keeps retrying.
 */
struct RetryOptions
{
    /** Total dispatch attempts per batch (first try included). */
    int maxAttempts = 3;
    /** Backoff before retry n is base * 2^(n-1), capped below. */
    double backoffBaseSeconds = 1e-4;
    double backoffMaxSeconds = 2e-2;
};

/** Engine configuration. */
struct ServeOptions
{
    /**
     * Platform registry names, aliases, or spec strings to route
     * across; "GCoD@bits=8,freq=0.25" style specs let one deployment
     * mix parameterized variants of the same platform.
     */
    std::vector<std::string> backends = {"GCoD", "HyGCN", "AWB-GCN",
                                         "DGL-GPU"};
    /** Worker threads draining the batch queue. */
    size_t workers = 2;
    /**
     * Kernel threads for the shared compute pool that artifact builds
     * and batch execution run on; 0 keeps the current policy
     * (GCOD_THREADS env, else hardware concurrency). Note the pool is
     * process-wide: a nonzero value here calls setThreads() and so
     * applies to every pool user in the process (last writer wins),
     * not just this engine.
     */
    int kernelThreads = 0;
    /** Max resident artifacts in the LRU cache. */
    size_t cacheCapacity = 8;
    BatchOptions batching;
    /** Pipeline knobs baked into every artifact (and its cache key). */
    GcodOptions gcod;
    /** Synthesis scale override; 0 = per-dataset serving default. */
    double artifactScale = 0.0;
    /** Seed for graph synthesis (fixed seed => deterministic serving). */
    uint64_t artifactSeed = 42;

    /**
     * > 1 routes large-graph artifacts through the sharded multi-chip
     * runtime (src/shard/): the artifact graph is cut into this many
     * shards and executed data-parallel across `shardBackends`.
     * 0/1 keeps every artifact on the single-chip path.
     */
    int shards = 0;
    /**
     * Chip fleet for the sharded path (registry names/aliases/spec
     * strings, one per chip; mixes allowed, e.g. {"GCoD",
     * "GCoD@bits=8"}). Empty = `shards` copies of backends.front().
     */
    std::vector<std::string> shardBackends;
    /**
     * Artifacts whose *published* node count is at least this execute
     * sharded; smaller graphs stay on the single-chip path where one
     * accelerator already fits the whole adjacency.
     */
    NodeId shardMinNodes = kLargeGraphNodes;

    /** Load-shedding thresholds; defaults shed nothing. */
    AdmissionOptions admission;

    /**
     * Streamed-update shard repair: when the incrementally repaired
     * plan's edge-mass imbalance exceeds this bound, applyUpdate()
     * falls back to a full re-partition and freezes it as the new
     * base. 0 = repair forever, never re-partition.
     */
    double shardRebaseImbalance = 2.0;

    /**
     * Directory of the persistent artifact store. When non-empty, cache
     * misses first try loading `<storeDir>/<key>.gcodart` (mmap-backed,
     * milliseconds) and fall back to a full pipeline build on any
     * integrity failure; freshly built artifacts are saved back so the
     * next process warm-starts. Empty = no persistence (the default).
     */
    std::string storeDir;

    /**
     * Deterministic fault injection (src/fault/): all-zero rates (the
     * default) inject nothing and add no hot-path work. The effective
     * seed resolves through GCOD_FAULT_SEED.
     */
    fault::FaultConfig fault;
    /** Retry/backoff policy for failed dispatches. */
    RetryOptions retry;
    /**
     * Wall-clock deadline applied to requests that don't carry their
     * own timeoutSeconds; 0 = no deadline (the default). Checked at
     * dispatch and before every retry — an expired request resolves
     * with timedOut set instead of waiting out further recovery.
     */
    double defaultTimeoutSeconds = 0.0;
    /** Circuit-breaker knobs of the backend router. */
    HealthOptions health;

    /**
     * Trace verbosity (obs::TraceLevel): 0 records nothing (and adds no
     * hot-path allocations), 1 records request/batch/route/execute/
     * store stage spans, 2 adds per-shard, halo-exchange, and kernel
     * spans.
     * The GCOD_TRACE environment variable (when set) overrides this, so
     * a deployment flips tracing on without recompiling. Tracing never
     * changes serving results: logits are byte-identical with tracing
     * on or off (bench/obs_overhead gates this plus a <= 3% throughput
     * overhead bound).
     */
    int traceLevel = 0;
};

class ServingEngine
{
  public:
    explicit ServingEngine(ServeOptions opts = {});
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Enqueue one request; the future resolves when its batch completes.
     * Failures (e.g. unknown dataset) resolve the future with a reply
     * whose error is set — submit() itself never throws on bad input.
     */
    std::future<InferenceReply> submit(InferenceRequest req);

    /** Flush partial batches and block until every request completed. */
    void drain();

    /** Drain, stop the workers, and reject further submissions. */
    void shutdown();

    ArtifactCache &cache() { return cache_; }
    BackendRouter &router() { return router_; }
    ServerStats &stats() { return stats_; }
    /**
     * Unified metric registry: serve.* counters (the ServerStats view),
     * plus cache/queue/trace/fault gauges — one snapshot() for benches,
     * tests, and CI.
     */
    obs::MetricRegistry &metrics() { return metrics_; }
    /** Span recorder of the serving path (exports JSONL/Chrome JSON). */
    obs::TraceRecorder &trace() { return trace_; }
    /** The engine's fault plan (inspect the injected trace in tests). */
    fault::FaultPlan &faultPlan() { return *fault_; }
    const ServeOptions &options() const { return opts_; }
    /** Shard scheduler of the sharded path; null when shards <= 1. */
    const shard::ShardScheduler *shardScheduler() const
    {
        return shardScheduler_.get();
    }

    /**
     * Distinct sub-32-bit backend precisions this engine serves (from
     * the PlatformRegistry capabilities of its backends and shard
     * fleet) — the precisions artifacts pre-quantize packs for.
     */
    const std::vector<int> &quantBits() const { return quantBits_; }

    /** Requests submitted but not yet replied to. */
    size_t pending() const;

    /**
     * Host-execution logits of @p key's resident bundle at @p bits
     * (building the artifact if cold). The byte-identity oracle of the
     * fault drills: bench/fault_injection and tests/test_fault.cpp
     * memcmp these between a fault-free and an injected run. Null when
     * the bundle has no host execution at that precision.
     */
    std::shared_ptr<const Matrix> peekLogits(const ArtifactKey &key,
                                             int bits);

    /**
     * Hot-swap: rebuild the artifact for @p key from scratch (through
     * the full pipeline, bypassing the store) and atomically install it
     * as the key's new epoch. In-flight batches finish on the epoch they
     * already hold; no request is dropped or blocked. Returns the new
     * version.
     */
    uint64_t publishArtifact(const ArtifactKey &key);

    /** Hot-swap with a caller-supplied bundle (tests, external builds). */
    uint64_t publishArtifact(const ArtifactKey &key,
                             std::shared_ptr<const ArtifactBundle> bundle);

    /** What one streamed update did (see UpdateBuildStats). */
    struct UpdateResult
    {
        /** Cache version of the published epoch. */
        uint64_t version = 0;
        /** Dyn epoch (updates applied since the bundle's full build). */
        uint64_t dynEpoch = 0;
        /** True when the delta resolved to nothing; no swap happened. */
        bool noop = false;
        double seconds = 0.0;
        size_t touched = 0;
        size_t dirtyRows = 0;
        size_t recomputedRows = 0;
        size_t migrations = 0;
        size_t reassigned = 0;
        size_t affectedShards = 0;
        bool rebased = false;
    };

    /**
     * Streamed update: apply @p delta to the key's resident bundle
     * (building it first on a cold key) and hot-swap the incrementally
     * rebuilt next epoch in. Only delta-dirtied components are rebuilt
     * (src/serve/incremental.hpp); in-flight batches finish on the
     * epoch they hold, new lookups see the updated graph — no request
     * is ever dropped or served a torn graph. No-op deltas publish
     * nothing.
     */
    UpdateResult applyUpdate(const ArtifactKey &key,
                             const dyn::GraphDelta &delta);

    /**
     * Persist the resident bundle for @p key — plus every logit matrix
     * in its epoch's memo — to the store. Returns false when storeDir
     * is empty or the key is not resident.
     */
    bool saveArtifact(const ArtifactKey &key);

    /**
     * Free retired (replaced) bundles whose in-flight readers have all
     * drained; returns how many were reclaimed. The explicit RCU grace
     * period — call it periodically or after drain().
     */
    size_t reclaimRetiredArtifacts();

    /** Cache key for (dataset, model) under this engine's options. */
    ArtifactKey keyFor(const std::string &dataset,
                       const std::string &model) const
    {
        return ArtifactKey{dataset, model, optionsHash_};
    }

  private:
    void workerLoop();
    void runBatch(Batch &&batch);

    /**
     * Resolve @p p with @p reply (its id and tier filled in here): count
     * it in the stats unless @p outcome is "rejected" (turned away at
     * shutdown), record its root "request" span, and only then fulfil
     * the promise, so a client that wakes on the reply sees both.
     * @p batch is the batch span of a request that reached a worker (its
     * span then names the artifact and links the batch); null for a
     * request resolved at admission.
     */
    void resolve(PendingRequest &p, InferenceReply reply,
                 const char *outcome, const obs::ScopedSpan *batch = nullptr);

    /**
     * Route one batch over @p epoch under a "route" span, pricing the
     * epoch's backends into its memo on the first batch.
     */
    RouteDecision routeBatch(const ArtifactCache::Lookup &epoch,
                             SloTier tier, uint64_t trace_parent);

    /**
     * Logits of one host execution pass over @p epoch's bundle at
     * @p bits (32 = fp32 reference; otherwise the bundle's quantized
     * pack). Full-batch inference over fixed features is
     * request-independent, so the pass runs once per epoch and
     * precision, into the epoch's memo. Store-restored logits
     * (bundle->storedLogits) short-circuit the pass entirely. Null when
     * the bundle carries no host execution state.
     */
    std::shared_ptr<const Matrix> logitsFor(const ArtifactCache::Lookup &epoch,
                                            int bits,
                                            uint64_t trace_parent = 0);

    /**
     * Logits row of stand-in node @p target under one
     * sampled-neighborhood pass (InferenceRequest with sampleFanout >
     * 0), as a 1 x classes matrix: memcmp-identical to that row of the
     * full sampled pass at @p bits, same request + seed, same bytes.
     * Only the rows the answer reads are computed (nn/neighbor_sampler):
     * at fp32 the target's sampled receptive field; at lower bits the
     * seed-dependent layer-0 rows (the hubs) plus the target's last-
     * layer row, over sampledMemoFor's seed-invariant rows. Throws
     * (runtime_error) for non-Mean model families.
     */
    Matrix sampledLogits(const ArtifactCache::Lookup &epoch, int bits,
                         int fanout, uint64_t seed, NodeId target,
                         uint64_t trace_parent = 0);

    /**
     * The seed-invariant rows of @p epoch's int8 (or other sub-32-bit)
     * sampled passes at @p fanout, kept in the epoch's memo (at most
     * EpochMemo::kMaxSampledMemos at once). Built by the first rider
     * that needs it — never at artifact build or publish — under a
     * "sampled.memo.build" span; @p hit reports whether it already
     * existed.
     */
    std::shared_ptr<const SampledQuantMemo>
    sampledMemoFor(const ArtifactCache::Lookup &epoch, int bits, int fanout,
                   uint64_t trace_parent, bool &hit);

    ServeOptions opts_;
    uint64_t optionsHash_;
    /** Distinct sub-32-bit precisions across backends + shard fleet. */
    std::vector<int> quantBits_;
    /** Fleet execution precision of the sharded path (32 = fp32). */
    int fleetExecBits_ = 32;
    /**
     * Builder running the full pipeline unconditionally — what
     * publishArtifact() uses for hot-swap rebuilds. The cache's own
     * builder wraps this one with the store load/save fast path.
     */
    ArtifactCache::Builder freshBuilder_;
    /**
     * Declared (and so constructed) before cache_: the store-aware
     * builder handed to the cache captures fault_.get(), which must be
     * a live pointer by then. Shared so drills outlive the engine.
     */
    std::shared_ptr<fault::FaultPlan> fault_;
    ArtifactCache cache_;
    BackendRouter router_;
    /**
     * Declared before stats_ and trace_-consuming members: the registry
     * owns the "serve" StatGroup that stats_ views, and the ctor
     * registers cache/queue/fault/trace gauges into it.
     */
    obs::MetricRegistry metrics_;
    /**
     * Span recorder; level resolves GCOD_TRACE over opts_.traceLevel.
     * Declared before stats_/queue_ so the pointer handed to the
     * store-aware builder and the queue is valid throughout.
     */
    obs::TraceRecorder trace_;
    ServerStats stats_;
    BatchQueue queue_;
    std::unique_ptr<shard::ShardScheduler> shardScheduler_;

    std::atomic<uint64_t> nextId_{1};
    std::atomic<uint64_t> pending_{0};
    std::mutex drainMu_;
    std::condition_variable drainCv_;

    std::vector<std::thread> workers_;
    std::atomic<bool> stopped_{false};
};

} // namespace gcod::serve

#endif // GCOD_SERVE_ENGINE_HPP
