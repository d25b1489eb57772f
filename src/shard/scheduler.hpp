/**
 * @file
 * The shard scheduler: data-parallel execution of a shard plan across a
 * fleet of simulated accelerator chips (homogeneous or mixed, e.g.
 * "GCoD" + "GCoD@bits=8"), with per-shard costs from the platform
 * simulators and aggregate latency
 *
 *   latency = max over chips of (sum of assigned shard latencies)
 *           + two-phase halo-exchange cost (halo.hpp).
 *
 * Each shard is prepared once into a ShardExecution: its symmetric
 * local graph, a per-shard GCoD Step-1 layout (so workload-consuming
 * chips see real per-shard tiles — the shard inherits the dense/sparse
 * split by construction), and prebuilt simulator inputs for both chip
 * families. Preparation runs data-parallel on the shared kernel pool.
 *
 * Assignment is LPT (longest processing time first) in simulated time:
 * shards sorted by their cheapest-chip cost descending, each placed on
 * the chip minimizing that chip's finish time — deterministic, and
 * chip-aware for mixed fleets where an 8-bit chip runs shards faster.
 */
#ifndef GCOD_SHARD_SCHEDULER_HPP
#define GCOD_SHARD_SCHEDULER_HPP

#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/registry.hpp"
#include "gcod/reorder.hpp"
#include "shard/executor.hpp"
#include "shard/halo.hpp"
#include "shard/plan.hpp"

namespace gcod::shard {

/**
 * Prebuilt per-shard simulation state. Not copyable/movable:
 * `gcod.workload` points at this object's own `workload`, so it must
 * stay where buildShardExecutions constructed it (the returned vector
 * is sized up front and never reallocates).
 */
struct ShardExecution
{
    ShardExecution() = default;
    ShardExecution(const ShardExecution &) = delete;
    ShardExecution &operator=(const ShardExecution &) = delete;

    /** Symmetric local graph over the shard's local node space. */
    Graph local;
    /** Per-shard GCoD Step-1 layout (tiles in the local reordered space). */
    Partitioning layout;
    /** Workload descriptor of the reordered local adjacency. */
    WorkloadDescriptor workload;
    /** Simulator input for baseline chips (raw local adjacency). */
    GraphInput raw;
    /** Simulator input for workload-consuming chips (GCoD family). */
    GraphInput gcod;
};

/**
 * Prepare every shard of @p plan for simulation (pool-parallel).
 * @p reorder configures the per-shard Step-1 layout.
 */
std::vector<ShardExecution>
buildShardExecutions(const Graph &g, const ShardPlan &plan,
                     const ReorderOptions &reorder = {});

/** Outcome of scheduling one inference pass over a plan. */
struct ShardScheduleResult
{
    /** Chip each shard ran on. */
    std::vector<int> chipOf;
    /** Simulated seconds of each shard on its chip. */
    std::vector<double> shardSeconds;
    /** Busy seconds per chip (sum of its shards). */
    std::vector<double> chipSeconds;
    /** Slowest chip's busy time. */
    double makespanSeconds = 0.0;
    /** Halo-exchange cost across the pass's layer transitions. */
    HaloExchangeCost exchange;
    /** makespanSeconds + exchange.seconds. */
    double latencySeconds = 0.0;
};

class ShardScheduler
{
  public:
    struct Options
    {
        /** Chip fleet: registry names/aliases/spec strings, one per chip. */
        std::vector<std::string> chips = {"GCoD", "GCoD"};
        HaloExchangeOptions halo;
        /**
         * Derive halo.bytesPerScalar from the fleet's wire precision
         * (max operand bits across chips / 8) instead of using the
         * configured value: an all-8-bit fleet then exchanges 1-byte
         * activation scalars, quartering halo traffic. Set false to pin
         * halo.bytesPerScalar explicitly.
         */
        bool deriveWirePrecision = true;
    };

    explicit ShardScheduler(Options opts);

    int numChips() const { return int(chips_.size()); }
    /**
     * Fleet wire precision in bits: the widest chip operand precision —
     * every consumer can ingest halos coded at it. Also the precision
     * the serving engine executes homogeneous quantized fleets at.
     */
    int wireBits() const { return wireBits_; }
    const std::string &chipName(int i) const
    {
        return chips_[size_t(i)].name;
    }
    /** "shard[GCoD,GCoD@bits=8]" — the fleet as one backend label. */
    const std::string &fleetName() const { return fleetName_; }

    /**
     * Cost-simulate one inference pass of @p spec over the plan:
     * per-shard chip latencies, LPT assignment, makespan + exchange.
     * Thread-safe (no scheduler state is mutated).
     */
    ShardScheduleResult schedule(const ShardPlan &plan,
                                 const std::vector<ShardExecution> &units,
                                 const ModelSpec &spec,
                                 double feature_density = 1.0) const;

  private:
    struct Chip
    {
        std::string name;
        const PlatformDescriptor *descriptor = nullptr;
        std::unique_ptr<AcceleratorModel> model;
    };

    Options opts_;
    std::vector<Chip> chips_;
    std::string fleetName_;
    int wireBits_ = 32;
};

/**
 * A shard plan plus its prepared executions, cached alongside a serving
 * artifact so the per-shard builds are paid once per (dataset, options)
 * and amortized across requests.
 */
struct ShardedArtifact
{
    ShardPlan plan;
    std::vector<ShardExecution> units;
};

/** Build plan + executions for @p g in one step (pool-parallel). */
std::shared_ptr<const ShardedArtifact>
buildShardedArtifact(const Graph &g, int shards,
                     const ReorderOptions &reorder = {},
                     uint64_t seed = 1);

/**
 * Parse a chip-count fleet spec into the chip list a ShardScheduler
 * takes: ';'-separated entries, each either a bare registry
 * name/alias/spec string (one chip) or "<count>x<spec>", e.g.
 *
 *   "4xGCoD"                  -> 4 GCoD chips
 *   "2xGCoD;2xGCoD@bits=8"    -> a mixed full/8-bit fleet
 *   "GCoD;HyGCN"              -> one of each
 *
 * Every chip is validated against the PlatformRegistry; unknown names
 * fail with the registered lineup and a nearest-match suggestion.
 */
std::vector<std::string> parseFleetSpec(const std::string &spec);

} // namespace gcod::shard

#endif // GCOD_SHARD_SCHEDULER_HPP
