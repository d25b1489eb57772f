/**
 * @file
 * Cost-model-driven dispatch across heterogeneous backends.
 *
 * The router owns one AcceleratorModel per configured platform and scores
 * each batch with the shared per-layer arithmetic (accel/layer_cost):
 * combination MACs at the platform's dense efficiency, aggregation MACs at
 * its sparse efficiency, plus per-layer overhead — and, for the GCoD
 * accelerator, the two-pronged schedule simulation (accel/schedule) which
 * captures the denser/sparser branch overlap the closed-form estimate
 * misses. Estimates are pure functions of (backend, bundle) and the
 * router keeps none: the engine prices each artifact epoch once
 * (estimateAll) into that epoch's memo and hands the vector to choose().
 *
 * Dispatch is least-work-left in *virtual* time: each backend carries an
 * accumulator of the simulated seconds already assigned to it, and a
 * batch goes to the backend whose accumulated work plus this batch's
 * estimate is smallest (scaled by live queue depth when workers overlap).
 * Because the simulated platforms are orders of magnitude faster than
 * wall-clock arrivals, live queue depth alone almost never builds up; the
 * virtual accumulator models the steady-state saturation a real serving
 * fleet balances against, yielding a deterministic speed-weighted spread
 * across heterogeneous backends.
 */
#ifndef GCOD_SERVE_BACKEND_ROUTER_HPP
#define GCOD_SERVE_BACKEND_ROUTER_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/registry.hpp"
#include "obs/trace.hpp"
#include "serve/artifact.hpp"
#include "serve/request.hpp"

namespace gcod::serve {

/**
 * Circuit-breaker knobs. A backend trips Open after tripThreshold
 * consecutive execution failures; after cooldownSeconds of wall-clock
 * quarantine it admits a single half-open probe batch, whose outcome
 * either closes the breaker or re-opens it for another cooldown.
 */
struct HealthOptions
{
    /** Consecutive failures before the breaker trips Open. */
    int tripThreshold = 3;
    /** Wall-clock seconds a tripped backend sits out before probing. */
    double cooldownSeconds = 0.05;
};

/** Circuit-breaker state of one backend. */
enum class HealthState : uint8_t {
    Closed = 0,   ///< healthy: scores in routing normally
    Open = 1,     ///< tripped: excluded until the cooldown elapses
    HalfOpen = 2, ///< one probe batch in flight decides reopen/close
};

const char *healthStateName(HealthState s);

/** Outcome of routing one batch. */
struct RouteDecision
{
    int backend = -1;
    std::string name;
    /** Cost-model latency estimate for the batch's inference pass. */
    double estimatedSeconds = 0.0;
    /** Queue depth the chosen backend had when scored. */
    int depthAtChoice = 0;
    /** True when this batch is the half-open probe of a tripped backend. */
    bool probe = false;
};

class BackendRouter
{
  public:
    /**
     * @param names platform registry names, aliases, or spec strings
     * (e.g. "GCoD@bits=8"); see accel/registry.hpp for the grammar.
     */
    explicit BackendRouter(const std::vector<std::string> &names,
                           HealthOptions health = {});

    size_t numBackends() const { return backends_.size(); }
    const std::string &name(int i) const { return backends_[i]->name; }
    const AcceleratorModel &model(int i) const
    {
        return *backends_[i]->model;
    }

    /** Capability metadata of backend @p i's platform. */
    const PlatformDescriptor &descriptor(int i) const
    {
        return *backends_[i]->descriptor;
    }

    /** True when backend @p i consumes the GCoD workload descriptor. */
    bool usesWorkload(int i) const
    {
        return backends_[i]->descriptor->consumesWorkload;
    }

    /** Simulator input of @p bundle appropriate for backend @p i. */
    const GraphInput &
    inputFor(int i, const ArtifactBundle &bundle) const
    {
        return usesWorkload(i) ? bundle.gcodIn : bundle.raw;
    }

    /**
     * Pick a backend for one batch whose per-backend pass estimates are
     * @p estimates (from estimateAll). Ties break toward the earlier
     * platform in construction order, so routing is deterministic under
     * one worker. Tier-aware routing:
     *  - Latency: the backend with the smallest raw batch estimate
     *    (scaled by live queue depth) — the fastest door, regardless of
     *    virtual work already assigned;
     *  - Standard: least work left in virtual time (the default policy);
     *  - BestEffort: least work left, but excluding the single fastest
     *    backend (when more than one exists), keeping the quickest chip
     *    free for latency traffic.
     */
    RouteDecision choose(const std::vector<double> &estimates,
                         SloTier tier = SloTier::Standard);

    /** Cost-model estimate (seconds) of one pass, ignoring load. */
    double estimateSeconds(int i, const ArtifactBundle &bundle) const;

    /**
     * estimateSeconds of every backend over @p bundle, in backend
     * order, priced concurrently on the kernel pool.
     */
    std::vector<double> estimateAll(const ArtifactBundle &bundle) const;

    /**
     * Load accounting around a dispatched batch: begin charges the
     * estimate to the backend's virtual-work accumulator and bumps its
     * live queue depth; end releases the depth.
     */
    void beginDispatch(int i, double estimated_seconds);
    void endDispatch(int i);

    int queueDepth(int i) const;
    uint64_t dispatched(int i) const;
    /** Simulated seconds of work assigned to backend @p i so far. */
    double assignedWorkSeconds(int i) const;

    /**
     * Health bookkeeping around one executed batch. recordFailure bumps
     * the consecutive-failure count and trips the breaker Open at the
     * threshold (a failed half-open probe re-opens immediately);
     * recordSuccess resets the count and closes the breaker, ending any
     * probe. The engine calls exactly one of the two per dispatch.
     */
    void recordSuccess(int i);
    void recordFailure(int i);

    /**
     * Record breaker transitions ("breaker.trip" / "breaker.close"
     * instants) into @p rec; null disables. @p rec must outlive the
     * router.
     */
    void setTrace(obs::TraceRecorder *rec) { trace_ = rec; }

    HealthState healthState(int i) const;
    /** Times the breaker has tripped Open. */
    uint64_t trips(int i) const;
    /** Execution failures recorded against backend @p i. */
    uint64_t failures(int i) const;
    /** Backends currently Closed (scoring in routing). */
    int healthyCount() const;

  private:
    struct Backend
    {
        std::string name;
        /** Registry-owned capability metadata (outlives the router). */
        const PlatformDescriptor *descriptor = nullptr;
        std::unique_ptr<AcceleratorModel> model;
        std::atomic<int> inflight{0};
        std::atomic<uint64_t> dispatched{0};
        std::atomic<double> assignedWork{0.0};

        // Circuit-breaker state; every field below is guarded by the
        // router's healthMu_.
        HealthState health = HealthState::Closed;
        int consecFailures = 0;
        bool probeInFlight = false;
        Clock::time_point trippedAt{};
        uint64_t trips = 0;
        uint64_t failures = 0;
    };

    std::vector<std::unique_ptr<Backend>> backends_;
    HealthOptions healthOpts_;
    obs::TraceRecorder *trace_ = nullptr;
    mutable std::mutex healthMu_;
};

} // namespace gcod::serve

#endif // GCOD_SERVE_BACKEND_ROUTER_HPP
