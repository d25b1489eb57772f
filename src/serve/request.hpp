/**
 * @file
 * Request/reply types of the serving engine.
 *
 * A request names a dataset/model pair (resolved to an ArtifactKey by the
 * engine) and the node whose embedding/prediction the client wants. GCN
 * inference is full-batch, so any number of same-artifact requests ride
 * one accelerator pass; the reply records the batch they rode with and
 * both latency components (wall-clock queueing + simulated execution).
 */
#ifndef GCOD_SERVE_REQUEST_HPP
#define GCOD_SERVE_REQUEST_HPP

#include <chrono>
#include <future>
#include <string>

#include "serve/artifact.hpp"

namespace gcod::serve {

using Clock = std::chrono::steady_clock;

/**
 * Service-level objective tier of one request. Tiers shape every stage
 * of the pipeline: batch-queue dequeue order (latency first, with a
 * starvation guard for the lower tiers), backend routing (latency work
 * goes to the fastest estimate, best-effort avoids it), and admission
 * control under load (best-effort sheds first, then standard; latency
 * work is only dropped by the global depth cap). See docs/serving.md.
 */
enum class SloTier : uint8_t {
    Latency = 0,    ///< interactive: lowest latency, shed last
    Standard = 1,   ///< the default tier
    BestEffort = 2, ///< batch/offline: shed first under load
};

/** Number of tiers (array sizing). */
constexpr int kNumSloTiers = 3;

inline const char *
sloTierName(SloTier t)
{
    switch (t) {
    case SloTier::Latency: return "latency";
    case SloTier::Standard: return "standard";
    case SloTier::BestEffort: return "best_effort";
    }
    return "?";
}

/** One client inference request. */
struct InferenceRequest
{
    /** 0 = let the engine assign one. */
    uint64_t id = 0;
    std::string dataset = "Cora";
    std::string model = "GCN";
    /** Target node (in the dataset's published node space). */
    NodeId node = 0;
    /** SLO tier; Standard unless the client opts into another. */
    SloTier tier = SloTier::Standard;
    /**
     * Wall-clock deadline in seconds from enqueue; 0 inherits the
     * engine's ServeOptions::defaultTimeoutSeconds (which defaults to
     * no deadline). An expired request resolves with timedOut set
     * instead of retrying further — it is never silently dropped.
     */
    double timeoutSeconds = 0.0;
    /**
     * Neighbor-sampling fanout for Mean-aggregation models (GraphSAGE,
     * GCN): > 0 serves this request over per-layer sampled operators of
     * at most `sampleFanout` neighbors per node instead of the full
     * neighborhood — the latency-friendly mode production GNN serving
     * uses. Every layer aggregates with a sampled neighbor row mean, so
     * a GraphSAGE row with degree <= fanout reproduces the full mean,
     * while a sampled GCN never does: it drops Â's self loop and
     * symmetric normalization. 0 (default) serves the full precomputed
     * pass; a negative value resolves with an error.
     *
     * The reply is the requested node's row of the full sampled pass,
     * byte for byte, but only the rows that answer reads are computed:
     * at fp32 the node's sampled receptive field; at lower bits the
     * seed-dependent layer-0 rows (nodes of degree > fanout) plus the
     * node's last-layer row, over seed-invariant rows memoized per
     * (artifact, epoch, bits, fanout). The sampler is seeded purely by
     * (sampleSeed, fanout, layer, node), so the same request with the
     * same seed returns a byte-identical reply. Unsupported families
     * (GAT/GIN/ResGCN) resolve with an error.
     */
    int sampleFanout = 0;
    /** Sample stream seed; only read when sampleFanout > 0. */
    uint64_t sampleSeed = 0;
};

/** Completion record handed back through the submit() future. */
struct InferenceReply
{
    uint64_t id = 0;
    /** Backend platform that executed the batch ("" on error). */
    std::string backend;
    /** Number of requests that shared the accelerator pass. */
    size_t batchSize = 0;
    /** Wall-clock seconds spent queued before dispatch. */
    double queueSeconds = 0.0;
    /** Simulated accelerator latency of the (shared) inference pass. */
    double serviceSeconds = 0.0;
    /** End-to-end latency: queueing + simulated execution. */
    double latencySeconds = 0.0;
    /** Whether the artifact was already resident when dispatched. */
    bool cacheHit = false;
    /**
     * Host-execution precision of the pass that produced `prediction`:
     * the backend's operand bits when a quantized pack ran (e.g. 8 for
     * GCoD@bits=8), 32 for fp32, 0 when the artifact carries no host
     * execution state (unsupported model family or stub bundles).
     */
    int executedBits = 0;
    /** Predicted class of the requested node; -1 without host execution. */
    int prediction = -1;
    /** SLO tier the request was served (or shed) under. */
    SloTier tier = SloTier::Standard;
    /**
     * True when admission control dropped the request instead of
     * executing it (error is also set). Shed requests are accounted
     * separately from completed AND failed work, so latency percentiles
     * never include dropped requests.
     */
    bool shed = false;
    /** Dispatch attempts beyond the first that this batch needed. */
    int retries = 0;
    /** True when recovery moved the batch off the first-choice backend. */
    bool failedOver = false;
    /** True when the request's wall-clock deadline expired (error set). */
    bool timedOut = false;
    /** Non-empty when the request failed (unknown dataset/model, ...). */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** A queued request: client payload + routing key + completion plumbing. */
struct PendingRequest
{
    InferenceRequest req;
    ArtifactKey key;
    Clock::time_point enqueued;
    std::promise<InferenceReply> promise;
    /**
     * Root span id of this request's trace (0 = untraced). Drawn at
     * submit(); every downstream span (batch, route, execute, shard
     * compute) hangs under it, and the root "request" span itself is
     * recorded when the reply resolves — the full causal tree of one
     * request is reconstructable from the exported spans.
     */
    uint64_t traceId = 0;
};

/** A flushed group of same-artifact, same-tier requests (one pass). */
struct Batch
{
    ArtifactKey key;
    SloTier tier = SloTier::Standard;
    std::vector<PendingRequest> requests;

    size_t size() const { return requests.size(); }
};

} // namespace gcod::serve

#endif // GCOD_SERVE_REQUEST_HPP
