/**
 * @file
 * Shard plans: cutting one graph into K partition-aware shards for
 * data-parallel execution across multiple simulated accelerators.
 *
 * The cut reuses GCoD's Step-1 degree-class split: nodes are classified
 * into degree classes, the whole graph is cut once by the METIS-lite
 * partitioner balancing degree+1 edge-mass weights (so the cut follows
 * community structure), and a per-class repair pass then rebalances each
 * class across the shards. Every shard therefore inherits the paper's
 * dense/sparse structure — a slice of the high-degree nodes and a slice
 * of the low-degree tail — instead of one shard swallowing all hubs.
 * Each shard owns a subset of the global nodes and carries a *halo*:
 * the boundary neighbors owned by other
 * shards whose features must be exchanged between layers.
 *
 * Local node space convention: a shard's local ids are
 * [0, ownedCount) = owned nodes in ascending global order, followed by
 * [ownedCount, localCount) = halo nodes in ascending global order.
 * Operator slices preserve the global per-row entry order, which is what
 * makes sharded execution bit-identical to single-chip execution (see
 * executor.hpp and docs/sharding.md).
 */
#ifndef GCOD_SHARD_PLAN_HPP
#define GCOD_SHARD_PLAN_HPP

#include <vector>

#include "graph/graph.hpp"
#include "partition/metis_lite.hpp"

namespace gcod::shard {

/** Plan construction knobs. */
struct ShardPlanOptions
{
    /** Number of shards (= chips the plan will spread across). */
    int shards = 2;
    /** GCoD Step-1 degree classes the cut preserves (C). */
    int degreeClasses = 2;
    /**
     * METIS-lite options for the whole-graph cut (including its seed);
     * the balance factor also bounds the per-class repair pass.
     */
    PartitionOptions partition;
};

/** One shard of the plan. */
struct Shard
{
    int id = 0;
    /** Owned global node ids, ascending. */
    std::vector<NodeId> owned;
    /** Halo global node ids (neighbors owned elsewhere), ascending. */
    std::vector<NodeId> halo;
    /** Local -> global map: owned followed by halo. */
    std::vector<NodeId> localToGlobal;
    /** Adjacency entries in owned rows (this shard's aggregation work). */
    EdgeOffset ownedNnz = 0;
    /** Of those, entries whose column is a halo node (cut traffic). */
    EdgeOffset cutNnz = 0;
    /** Owned nodes at least one other shard needs (push volume). */
    NodeId boundaryCount = 0;

    NodeId ownedCount() const { return NodeId(owned.size()); }
    NodeId haloCount() const { return NodeId(halo.size()); }
    NodeId localCount() const { return NodeId(localToGlobal.size()); }
};

/** A complete K-way shard plan over one graph. */
struct ShardPlan
{
    int numShards = 0;
    NodeId numNodes = 0;
    /** Degree classes the split preserved (<= requested on regular graphs). */
    int numClasses = 0;
    /** Owning shard per global node. */
    std::vector<int> shardOf;
    /** Degree class per global node (the GCoD Step-1 split reused). */
    std::vector<int> classOf;
    std::vector<Shard> shards;

    /** Undirected edges crossing shards. */
    EdgeOffset edgeCut = 0;
    /** edgeCut / total undirected edges (0 when edgeless). */
    double edgeCutFraction = 0.0;
    /** Max shard edge-mass (degree+1 weight) over the ideal share. */
    double maxImbalance = 0.0;
    /**
     * Row-level exchange matrix: pairRows[s * numShards + t] = number of
     * shard-s-owned rows shard t holds in its halo. Drives the two-phase
     * halo-exchange cost model (halo.hpp).
     */
    std::vector<NodeId> pairRows;

    /** Total halo entries across shards (replicated rows per exchange). */
    EdgeOffset
    haloNodes() const
    {
        EdgeOffset total = 0;
        for (const Shard &s : shards)
            total += s.haloCount();
        return total;
    }
};

/**
 * Build a K-way plan: classify nodes into degree classes, cut the whole
 * graph edge-balanced across K shards (METIS-lite, degree+1 weights),
 * repair per-class balance, then derive halos and exchange volumes.
 * Per-shard halo derivation runs data-parallel on the shared kernel
 * pool.
 */
ShardPlan buildShardPlan(const Graph &g, const ShardPlanOptions &opts = {});

/**
 * Re-derive one shard's per-shard state (owned nnz, cut nnz, halo,
 * localToGlobal) from a fixed node→shard assignment. @p shard.owned must
 * already hold the shard's nodes in ascending global order; everything
 * else is overwritten. Shared by buildShardPlan and the incremental
 * delta repair (src/dyn/shard_repair.*) so both produce bit-identical
 * shard state.
 */
void deriveShard(const Graph &g, const std::vector<int> &shard_of,
                 Shard &shard);

/**
 * Recompute the plan-level aggregates — exchange matrix, boundary
 * counts, edge cut, and edge-mass imbalance — from the per-shard state.
 * Summation order is fixed (shard-ascending, owned-ascending), so a
 * repair that calls this matches a from-scratch build bit for bit.
 */
void finalizePlanStats(const Graph &g, ShardPlan &plan);

/**
 * Derive a complete plan from a fixed assignment: per-shard owned lists,
 * halos (pool-parallel), and finalizePlanStats. buildShardPlan is
 * exactly classify + METIS-lite assign + derivePlan.
 */
ShardPlan derivePlan(const Graph &g, int num_shards, int num_classes,
                     std::vector<int> shard_of, std::vector<int> class_of);

/**
 * Slice a global aggregation operator for one shard: rows are the
 * shard's owned nodes (local order), columns are remapped into the local
 * node space. The operator's pattern must be contained in the plan
 * graph's adjacency plus self loops (true for the GCN-normalized,
 * row-mean, and binary operators). Per-row entry order and values are
 * preserved exactly. The scheduler's cost model prices each shard's
 * aggregation work from it; execution reads the global operator.
 */
CsrMatrix extractLocalOperator(const CsrMatrix &op, const Shard &shard,
                               NodeId num_nodes);

/**
 * The shard's cost-model graph: a symmetric adjacency over the local
 * node space containing every owned-row entry plus its mirror. Owned
 * rows reproduce the shard's real aggregation workload; halo rows carry
 * only the mirrored cut entries (halo-halo edges are excluded — the
 * shard never touches them).
 */
Graph localShardGraph(const Graph &g, const Shard &shard);

} // namespace gcod::shard

#endif // GCOD_SHARD_PLAN_HPP
