/**
 * @file
 * Combined incremental GCoD state for one evolving graph.
 *
 * DynState ties the dyn building blocks together: the epoch graph
 * (DynamicGraph), incrementally repaired aggregation operators (the GCN
 * normalized adjacency and the GraphSAGE row-mean operator), the frozen
 * -threshold degree-class split (DynamicClasses), and the optional
 * delta-aware shard plan (DynamicShardPlan). Everything the state holds
 * is a pure deterministic function of (final graph, frozen boot
 * config), so applying N small deltas, one net delta, or rebuilding
 * from scratch over the final graph all produce bit-identical state —
 * the invariant tests/test_dyn.cpp memcmp-checks and the serving
 * applyUpdate() path builds on.
 */
#ifndef GCOD_DYN_DYN_STATE_HPP
#define GCOD_DYN_DYN_STATE_HPP

#include <memory>
#include <optional>

#include "dyn/class_repair.hpp"
#include "dyn/dirty.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/shard_repair.hpp"

namespace gcod::dyn {

/** Boot-time configuration frozen for the lifetime of the state. */
struct DynStateOptions
{
    /** Degree classes for the frozen dense/sparse split. */
    int degreeClasses = 2;
    /** Maintain a delta-aware shard plan (serving's sharded path). */
    bool trackShards = false;
    shard::ShardPlanOptions shardOpts;
    /** Imbalance bound before shard repair rebases; 0 = never. */
    double rebaseImbalance = 0.0;
};

/** Per-update bookkeeping returned by DynState::apply. */
struct DynUpdateStats
{
    AppliedDelta applied;
    /** Operator-level dirty region D0 (dirty.hpp). */
    DirtyRegion dirty;
    std::vector<ClassMigration> migrations;
    ShardRepairStats shardRepair;
};

class DynState
{
  public:
    DynState() = default;

    /** Bootstrap from an initial graph (epoch 0, thresholds frozen). */
    DynState(Graph initial, const DynStateOptions &opts);

    /**
     * Bootstrap adopting an existing shard plan as the base (the
     * serving path, where the artifact's plan already exists).
     */
    DynState(std::shared_ptr<const Graph> initial,
             const DynStateOptions &opts, shard::ShardPlan base_plan);

    const Graph &graph() const { return *graph_; }
    std::shared_ptr<const Graph> graphPtr() const { return graph_; }
    uint64_t epoch() const { return epoch_; }

    /** GCN-normalized operator of the current epoch. */
    const CsrMatrix &normalized() const { return normalized_; }
    /** Row-mean (GraphSAGE) operator of the current epoch. */
    const CsrMatrix &rowMean() const { return rowMean_; }

    const DynamicClasses &classes() const { return classes_; }
    /** Null when shard tracking is off. */
    const DynamicShardPlan *shardPlan() const
    {
        return shards_ ? &*shards_ : nullptr;
    }

    /**
     * Apply one batch: advance the graph epoch, repair both operators
     * over the dirty region, migrate degree classes of touched nodes,
     * and repair the shard plan. Returns the update's bookkeeping
     * (including D0, which IncrementalForward::applied recomputes
     * forward from).
     */
    DynUpdateStats apply(const GraphDelta &delta);

  private:
    std::shared_ptr<const Graph> graph_;
    uint64_t epoch_ = 0;
    CsrMatrix normalized_;
    CsrMatrix rowMean_;
    DynamicClasses classes_;
    std::optional<DynamicShardPlan> shards_;
};

/**
 * Incremental repair of the GCN-normalized operator (exposed for
 * tests): rows in @p dirty are rebuilt against @p new_graph, clean row
 * spans are copied from @p old_norm verbatim. Bit-identical to
 * new_graph.normalizedAdjacency().
 */
CsrMatrix repairNormalized(const CsrMatrix &old_norm,
                           const Graph &new_graph,
                           const DirtyRegion &dirty);

/**
 * Incremental repair of the row-mean operator: only rows in @p touched
 * (pattern or own-degree change) are rebuilt. Bit-identical to
 * GraphContext(new_graph).rowMean().
 */
CsrMatrix repairRowMean(const CsrMatrix &old_rm, const Graph &new_graph,
                        const std::vector<NodeId> &touched);

} // namespace gcod::dyn

#endif // GCOD_DYN_DYN_STATE_HPP
