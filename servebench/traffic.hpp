/**
 * @file
 * Load generation against a ServingEngine through its public API only.
 *
 * Open loop: a seeded schedule of exponential inter-arrival gaps is
 * replayed by one generator thread; latency runs from each request's
 * *scheduled* send time, so a stall also charges the requests queued
 * behind it. A collector thread sweeps the outstanding futures. Closed
 * loop: the calling thread keeps a fixed window of requests outstanding,
 * sweeping the futures itself and refilling each slot as its reply is
 * found; the completion rate is the capacity.
 *
 * A sweep stamps each future with the clock when it is found ready, in
 * whatever order replies complete, never in submit order.
 */
#ifndef SERVEBENCH_TRAFFIC_HPP
#define SERVEBENCH_TRAFFIC_HPP

#include "common.hpp"
#include "dyn/delta.hpp"
#include "sim/rng.hpp"

namespace servebench {

using gcod::serve::InferenceReply;
using gcod::serve::InferenceRequest;
using gcod::serve::ServingEngine;

/**
 * Draws requests of a workload's mix from a seeded stream. Kinds are
 * dealt from a shuffled deck holding every (dataset, family, tier) in
 * exact proportion, so every stretch of traffic has the mix's shares and
 * seeds differ only in order and target nodes.
 */
class TrafficMix
{
  public:
    TrafficMix(const Workload &w, uint64_t seed);
    InferenceRequest next();

  private:
    const Workload &w_;
    gcod::Rng rng_;
    std::vector<InferenceRequest> deck_;
    size_t dealt_ = 0;
};

/** One open-loop request: when it is due and what it asks. */
struct Scheduled
{
    double dueSeconds = 0.0;
    InferenceRequest req;
};

/** Seeded open-loop schedule covering @p seconds at the workload's rate. */
std::vector<Scheduled> makeSchedule(const Workload &w, uint64_t seed,
                                    double seconds);

/** One resolved request. */
struct Completion
{
    /** Index into the phase's request list. */
    size_t index = 0;
    /** Due (open loop) or send (closed loop) time to future-ready, ms. */
    double latencyMs = 0.0;
    Clock::time_point readyAt;
    InferenceReply reply;
};

/** Outcome of one traffic phase. */
struct PhaseResult
{
    /** Requests submitted, in submission order. */
    std::vector<InferenceRequest> sent;
    /** Completions, in the order they were found ready. */
    std::vector<Completion> done;
    /**
     * How late each send left, ms: against its schedule (open loop), or
     * after the reply that freed its slot was found (closed loop).
     */
    std::vector<double> lateMs;
    Clock::time_point start;
    Clock::time_point end;

    /** Requests whose reply carries an error (failed, timed out, shed). */
    uint64_t failed() const;
};

/** Replay @p schedule open loop; returns once every request resolved. */
PhaseResult runOpenLoop(ServingEngine &engine,
                        const std::vector<Scheduled> &schedule,
                        double seconds);

/**
 * Closed loop for @p seconds with @p window requests outstanding.
 * @p capacity_rps (when not null) receives the median completion rate
 * over the slices that follow a warm-up tenth.
 */
PhaseResult runClosedLoop(ServingEngine &engine, TrafficMix &mix,
                          size_t window, double seconds,
                          double *capacity_rps);

/** Node pairs toggled by every delta: a small update. */
constexpr int kDeltaEdges = 8;

using NodePairs = std::vector<std::pair<gcod::NodeId, gcod::NodeId>>;

/** One update issued by the benchmark. */
struct UpdateRecord
{
    /** Wall time of the applyUpdate() call, ms. */
    double callMs = 0.0;
    ServingEngine::UpdateResult result;
    /** Nodes of the graph the delta applied to. */
    int64_t nodes = 0;
};

/**
 * kDeltaEdges seeded node pairs of @p g: half drawn uniformly (almost
 * never adjacent, so toggling inserts them), half drawn from its edges
 * (toggling removes them). A delta and its undo then insert and remove
 * equally many edges.
 */
NodePairs deltaPairs(const gcod::Graph &g, uint64_t seed);

/**
 * One applyUpdate() on @p key that toggles @p pairs against its resident
 * graph (an edge is removed, a non-edge inserted), timed by the
 * benchmark's own clock. The same pairs again undo it.
 */
UpdateRecord timedUpdate(ServingEngine &engine,
                         const gcod::serve::ArtifactKey &key,
                         const NodePairs &pairs);

} // namespace servebench

#endif // SERVEBENCH_TRAFFIC_HPP
