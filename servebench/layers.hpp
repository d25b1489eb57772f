/**
 * @file
 * Per-layer numbers of the traced run.
 *
 * Two sources, neither of which changes the program under test:
 *  - the engine's own instruments over a traced serving window: its
 *    spans (TraceRecorder at level 2) and the kernel pool's task samples
 *    (obs::KernelProfiler), aggregated here into queue, reply-path,
 *    router, cache, kernel and pool metrics plus the trace's closure;
 *  - probes: direct, benchmark-timed calls into each layer's public
 *    functions on the workload's own artifacts (nn/quant_exec forwards,
 *    nn/neighbor_sampler, accel simulators).
 *
 * Every per-layer metric is emitted on every workload; a metric the
 * workload does not exercise reads 0.
 */
#ifndef SERVEBENCH_LAYERS_HPP
#define SERVEBENCH_LAYERS_HPP

#include <iosfwd>
#include <map>

#include "obs/kernel_profile.hpp"
#include "traffic.hpp"

namespace servebench {

/** What the traced serving window recorded. */
struct TraceWindow
{
    std::vector<gcod::obs::TraceSpan> spans;
    std::map<std::string, gcod::obs::ZoneStats> zones;
    double wallSeconds = 0.0;
    int poolThreads = 1;
    uint64_t droppedSpans = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Replies of the traced window (for the simulated service time). */
    std::vector<Completion> done;
};

/**
 * Append the span and profiler aggregates of @p w to @p m: serve.*,
 * route.*, accel.*, cache.*, host_exec.*, kernel.* and pool.*. Prints
 * the per-stage self-time table on @p log. Returns the median
 * per-request closure: the request's time covered by stage spans over
 * its request span.
 */
double aggregateTrace(const TraceWindow &w, Metrics &m, std::ostream &log);

/**
 * Direct layer probes on @p engine's resident artifacts, appended to
 * @p m: referenceForward / quantizedForwardMixed per family x precision
 * on the Cora and Pubmed artifacts (forward.*), buildSampledExecution /
 * quantizeSampled and sampled forwards (sampler.*, sampled.*), and
 * AcceleratorModel::simulate per backend (accel.simulate_ms.<backend>).
 * Flops and bytes are computed from tensor shapes; the per-forward table
 * goes to @p log. Returns false when a probed forward's logits differ
 * from the ones the engine serves.
 */
bool runProbes(ServingEngine &engine, const Workload &w, uint64_t seed,
               Metrics &m, std::ostream &log);

} // namespace servebench

#endif // SERVEBENCH_LAYERS_HPP
