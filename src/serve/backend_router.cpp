#include "serve/backend_router.hpp"

#include <algorithm>

#include "accel/layer_cost.hpp"
#include "accel/result.hpp"
#include "accel/schedule.hpp"
#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod::serve {

const char *
healthStateName(HealthState s)
{
    switch (s) {
    case HealthState::Closed: return "closed";
    case HealthState::Open: return "open";
    case HealthState::HalfOpen: return "half_open";
    }
    return "?";
}

BackendRouter::BackendRouter(const std::vector<std::string> &names,
                             HealthOptions health)
    : healthOpts_(health)
{
    GCOD_ASSERT(!names.empty(), "BackendRouter needs at least one backend");
    GCOD_ASSERT(healthOpts_.tripThreshold >= 1,
                "a breaker that trips on zero failures never serves");
    GCOD_ASSERT(healthOpts_.cooldownSeconds >= 0.0,
                "negative cooldown makes no sense");
    PlatformRegistry &registry = PlatformRegistry::instance();
    for (const auto &n : names) {
        auto b = std::make_unique<Backend>();
        ResolvedPlatform rp = registry.resolve(n);
        b->name = rp.displayName;
        b->descriptor = rp.descriptor;
        b->model = registry.build(std::move(rp));
        backends_.push_back(std::move(b));
    }
}

double
BackendRouter::estimateSeconds(int i, const ArtifactBundle &bundle) const
{
    const Backend &b = *backends_[i];
    const PlatformConfig &cfg = b.model->config();
    const GraphInput &in = inputFor(i, bundle);
    PhaseOrder order = b.descriptor->phaseOrder;
    auto works = modelWork(bundle.spec, double(in.adj.rows),
                           double(in.adj.nnz), order, in.featureDensity);

    double comb_cycles = 0.0, agg_cycles = 0.0, overhead = 0.0;
    double agg_width_sum = 0.0;
    for (const auto &w : works) {
        comb_cycles +=
            w.combMacs / std::max(1.0, cfg.numPEs * cfg.denseEfficiency);
        agg_cycles +=
            w.aggMacs / std::max(1.0, cfg.numPEs * cfg.sparseEfficiency);
        overhead += cfg.perLayerOverheadCycles + cfg.perEdgeCycles * w.nnz;
        agg_width_sum += w.aggWidth;
    }

    if (b.descriptor->consumesWorkload && in.workload != nullptr &&
        !works.empty()) {
        // Replace the closed-form aggregation estimate with the
        // two-pronged schedule simulation at the mean aggregation width
        // (one representative layer, scaled by depth): it sees the
        // denser/sparser branch overlap and the chunk idle tails.
        ScheduleOptions so;
        so.aggWidth = std::max(1.0, agg_width_sum / double(works.size()));
        so.elemBytes = elemBytes(cfg);
        so.sparseEfficiency = cfg.sparseEfficiency;
        so.totalPEs = cfg.numPEs;
        ScheduleResult sr = simulateSchedule(*in.workload, so);
        agg_cycles = sr.aggregationCycles * double(works.size());
    }

    // MAC and edge counts grow ~linearly with graph size, so extrapolate
    // the synthesized stand-in to the published dataset size.
    double cycles = (comb_cycles + agg_cycles + overhead) * in.sizeScale();
    return cycles / (cfg.freqGHz * 1e9);
}

std::vector<double>
BackendRouter::estimateAll(const ArtifactBundle &bundle) const
{
    std::vector<double> est(backends_.size());
    parallelFor(0, int64_t(est.size()), [&](const Range &r, size_t) {
        for (int64_t i = r.begin; i < r.end; ++i)
            est[size_t(i)] = estimateSeconds(int(i), bundle);
    });
    return est;
}

RouteDecision
BackendRouter::choose(const std::vector<double> &estimates, SloTier tier)
{
    GCOD_ASSERT(estimates.size() == backends_.size(),
                "choose() needs one estimate per backend");
    // Health gate: only Closed backends score. A tripped backend whose
    // cooldown has elapsed may instead claim this batch as its single
    // half-open probe — but never a Latency batch while a healthy
    // alternative exists (interactive traffic is not the guinea pig).
    std::vector<char> avail(backends_.size(), 0);
    int navail = 0;
    int probe_candidate = -1;
    {
        std::lock_guard<std::mutex> lock(healthMu_);
        Clock::time_point now = Clock::now();
        Clock::time_point oldest{};
        for (int i = 0; i < int(backends_.size()); ++i) {
            Backend &b = *backends_[i];
            if (b.health == HealthState::Closed) {
                avail[size_t(i)] = 1;
                ++navail;
            } else if (b.health == HealthState::Open && !b.probeInFlight &&
                       std::chrono::duration<double>(now - b.trippedAt)
                               .count() >= healthOpts_.cooldownSeconds) {
                if (probe_candidate < 0 || b.trippedAt < oldest) {
                    probe_candidate = i;
                    oldest = b.trippedAt;
                }
            }
        }
        if (probe_candidate >= 0 &&
            (tier != SloTier::Latency || navail == 0)) {
            Backend &p = *backends_[probe_candidate];
            p.health = HealthState::HalfOpen;
            p.probeInFlight = true;
        } else {
            probe_candidate = -1;
        }
        if (probe_candidate < 0 && navail == 0) {
            // Every backend is tripped or mid-probe. Serving never
            // hard-fails on routing: force the least-recently-tripped
            // backend (longest since its last trip) back into scoring
            // and let the dispatch outcome speak for itself.
            int forced = 0;
            for (int i = 1; i < int(backends_.size()); ++i)
                if (backends_[i]->trippedAt < backends_[forced]->trippedAt)
                    forced = i;
            avail[size_t(forced)] = 1;
            navail = 1;
        }
    }

    if (probe_candidate >= 0) {
        RouteDecision d;
        d.backend = probe_candidate;
        d.name = backends_[probe_candidate]->name;
        d.estimatedSeconds = estimates[size_t(probe_candidate)];
        d.depthAtChoice = backends_[probe_candidate]->inflight.load();
        d.probe = true;
        return d;
    }

    // Best-effort work stays off the fastest backend (by base estimate)
    // so latency traffic always finds the quickest chip uncontended —
    // among the currently healthy set, and only while that set has an
    // alternative left.
    int fastest = -1;
    if (tier == SloTier::BestEffort && navail > 1) {
        double fastest_base = 0.0;
        for (int i = 0; i < int(backends_.size()); ++i) {
            if (!avail[size_t(i)])
                continue;
            double base = estimates[size_t(i)];
            if (fastest < 0 || base < fastest_base) {
                fastest = i;
                fastest_base = base;
            }
        }
    }

    RouteDecision best;
    double best_score = 0.0;
    for (int i = 0; i < int(backends_.size()); ++i) {
        if (!avail[size_t(i)] || i == fastest)
            continue;
        double base = estimates[size_t(i)];
        int depth = backends_[i]->inflight.load();
        // Latency tier races to the fastest door now; the other tiers
        // balance virtual completion time (assigned work + this batch),
        // both scaled by the live queue depth when workers overlap.
        double score = tier == SloTier::Latency
                           ? base * double(1 + depth)
                           : (backends_[i]->assignedWork.load() + base) *
                                 double(1 + depth);
        if (best.backend < 0 || score < best_score) {
            best_score = score;
            best.backend = i;
            best.name = backends_[i]->name;
            best.estimatedSeconds = base;
            best.depthAtChoice = depth;
        }
    }
    return best;
}

void
BackendRouter::recordSuccess(int i)
{
    bool closed_breaker = false;
    {
        std::lock_guard<std::mutex> lock(healthMu_);
        Backend &b = *backends_[i];
        closed_breaker = b.health != HealthState::Closed;
        b.consecFailures = 0;
        b.probeInFlight = false;
        b.health = HealthState::Closed;
    }
    if (closed_breaker && trace_ != nullptr && trace_->enabled())
        trace_->instant("breaker.close", "serve", 0,
                        {{"backend", backends_[i]->name}});
}

void
BackendRouter::recordFailure(int i)
{
    bool tripped = false;
    uint64_t failures = 0;
    {
        std::lock_guard<std::mutex> lock(healthMu_);
        Backend &b = *backends_[i];
        ++b.failures;
        ++b.consecFailures;
        if (b.health == HealthState::HalfOpen) {
            // The probe itself failed: straight back to Open for another
            // full cooldown.
            b.health = HealthState::Open;
            b.probeInFlight = false;
            b.trippedAt = Clock::now();
            ++b.trips;
            tripped = true;
        } else if (b.health == HealthState::Closed &&
                   b.consecFailures >= healthOpts_.tripThreshold) {
            b.health = HealthState::Open;
            b.trippedAt = Clock::now();
            ++b.trips;
            tripped = true;
        }
        failures = b.failures;
    }
    if (tripped && trace_ != nullptr && trace_->enabled())
        trace_->instant("breaker.trip", "serve", 0,
                        {{"backend", backends_[i]->name},
                         {"failures", std::to_string(failures)}});
}

HealthState
BackendRouter::healthState(int i) const
{
    std::lock_guard<std::mutex> lock(healthMu_);
    return backends_[i]->health;
}

uint64_t
BackendRouter::trips(int i) const
{
    std::lock_guard<std::mutex> lock(healthMu_);
    return backends_[i]->trips;
}

uint64_t
BackendRouter::failures(int i) const
{
    std::lock_guard<std::mutex> lock(healthMu_);
    return backends_[i]->failures;
}

int
BackendRouter::healthyCount() const
{
    std::lock_guard<std::mutex> lock(healthMu_);
    int n = 0;
    for (const auto &b : backends_)
        if (b->health == HealthState::Closed)
            ++n;
    return n;
}

void
BackendRouter::beginDispatch(int i, double estimated_seconds)
{
    Backend &b = *backends_[i];
    b.inflight.fetch_add(1);
    b.dispatched.fetch_add(1);
    double cur = b.assignedWork.load();
    while (!b.assignedWork.compare_exchange_weak(cur,
                                                cur + estimated_seconds)) {
    }
}

void
BackendRouter::endDispatch(int i)
{
    backends_[i]->inflight.fetch_sub(1);
}

int
BackendRouter::queueDepth(int i) const
{
    return backends_[i]->inflight.load();
}

uint64_t
BackendRouter::dispatched(int i) const
{
    return backends_[i]->dispatched.load();
}

double
BackendRouter::assignedWorkSeconds(int i) const
{
    return backends_[i]->assignedWork.load();
}

} // namespace gcod::serve
