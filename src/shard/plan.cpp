#include "shard/plan.hpp"

#include <algorithm>
#include <numeric>

#include "nn/quant_exec.hpp"
#include "partition/degree_classes.hpp"
#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod::shard {

namespace {

/**
 * Rebalance one degree class across the shards of a cut-aligned base
 * partition: while a shard holds more than balanceFactor times its
 * ideal share of the class's edge mass, move its lightest class
 * members to the currently lightest shard. Moving low-degree nodes
 * first keeps the cut damage minimal, and the loop is deterministic.
 *
 * This is how the plan reuses GCoD's Step-1 degree-class split: the
 * METIS-lite base cut follows the community structure, and the repair
 * guarantees every shard inherits its share of both the dense and the
 * sparse class instead of one shard swallowing all hubs.
 */
void
repairClassBalance(const DegreeClasses &dc,
                   const std::vector<double> &weights, int shards,
                   double balance_factor, std::vector<int> &shard_of)
{
    for (int c = 0; c < dc.numClasses; ++c) {
        std::vector<NodeId> nodes;
        for (NodeId v = 0; v < NodeId(shard_of.size()); ++v)
            if (dc.classOf[size_t(v)] == c)
                nodes.push_back(v);
        if (nodes.empty())
            continue;
        std::stable_sort(nodes.begin(), nodes.end(),
                         [&](NodeId a, NodeId b) {
                             return weights[size_t(a)] <
                                    weights[size_t(b)];
                         });
        std::vector<double> mass(size_t(shards), 0.0);
        double total = 0.0;
        for (NodeId v : nodes) {
            mass[size_t(shard_of[size_t(v)])] += weights[size_t(v)];
            total += weights[size_t(v)];
        }
        double cap = total / double(shards) * balance_factor;
        for (int pass = 0; pass < 4; ++pass) {
            bool moved = false;
            for (NodeId v : nodes) {
                int s = shard_of[size_t(v)];
                if (mass[size_t(s)] <= cap)
                    continue;
                int t = int(std::min_element(mass.begin(), mass.end()) -
                            mass.begin());
                double w = weights[size_t(v)];
                if (t == s || mass[size_t(t)] + w >= mass[size_t(s)])
                    continue;
                shard_of[size_t(v)] = t;
                mass[size_t(s)] -= w;
                mass[size_t(t)] += w;
                moved = true;
            }
            if (!moved)
                break;
        }
    }
}

/**
 * Assign every node a shard: one cut-minimizing METIS-lite partition of
 * the whole graph balancing GCoD's degree+1 edge-mass weights, then the
 * per-class repair above.
 */
std::vector<int>
assignShards(const Graph &g, const DegreeClasses &dc,
             const ShardPlanOptions &opts)
{
    std::vector<double> weights(size_t(g.numNodes()));
    for (NodeId v = 0; v < g.numNodes(); ++v)
        weights[size_t(v)] = double(g.degrees()[size_t(v)]) + 1.0;
    PartitionResult pr =
        partitionGraph(g, opts.shards, weights, opts.partition);
    std::vector<int> shard_of = std::move(pr.partOf);
    repairClassBalance(dc, weights, opts.shards,
                       opts.partition.balanceFactor, shard_of);
    return shard_of;
}

} // namespace

void
deriveShard(const Graph &g, const std::vector<int> &shard_of, Shard &shard)
{
    const CsrMatrix &adj = g.adjacency();
    shard.halo.clear();
    shard.localToGlobal.clear();
    shard.ownedNnz = 0;
    shard.cutNnz = 0;
    shard.boundaryCount = 0; // finalizePlanStats fills this in
    std::vector<char> seen(size_t(g.numNodes()), 0);
    for (NodeId u : shard.owned) {
        shard.ownedNnz += adj.rowNnz(u);
        adj.forEachInRow(u, [&](NodeId v, float) {
            if (shard_of[size_t(v)] != shard.id) {
                ++shard.cutNnz;
                seen[size_t(v)] = 1;
            }
        });
    }
    for (NodeId v = 0; v < g.numNodes(); ++v)
        if (seen[size_t(v)])
            shard.halo.push_back(v);
    shard.localToGlobal = shard.owned;
    shard.localToGlobal.insert(shard.localToGlobal.end(),
                               shard.halo.begin(), shard.halo.end());
}

void
finalizePlanStats(const Graph &g, ShardPlan &plan)
{
    const int shards = plan.numShards;
    // Exchange matrix + boundary counts (who needs whose rows).
    plan.pairRows.assign(size_t(shards) * size_t(shards), 0);
    std::vector<char> boundary(size_t(g.numNodes()), 0);
    for (int t = 0; t < shards; ++t) {
        for (NodeId h : plan.shards[size_t(t)].halo) {
            int owner = plan.shardOf[size_t(h)];
            plan.pairRows[size_t(owner) * size_t(shards) + size_t(t)] += 1;
            boundary[size_t(h)] = 1;
        }
    }
    for (Shard &sh : plan.shards) {
        sh.boundaryCount = 0;
        for (NodeId u : sh.owned)
            sh.boundaryCount += boundary[size_t(u)];
    }

    plan.edgeCut = computeEdgeCut(g, plan.shardOf);
    plan.edgeCutFraction =
        g.numEdges() > 0 ? double(plan.edgeCut) / double(g.numEdges()) : 0.0;

    double total_mass = 0.0;
    double max_mass = 0.0;
    for (const Shard &sh : plan.shards) {
        double mass = 0.0;
        for (NodeId u : sh.owned)
            mass += double(g.degrees()[size_t(u)]) + 1.0;
        total_mass += mass;
        max_mass = std::max(max_mass, mass);
    }
    double ideal = total_mass / double(shards);
    plan.maxImbalance = ideal > 0.0 ? max_mass / ideal : 0.0;
}

ShardPlan
derivePlan(const Graph &g, int num_shards, int num_classes,
           std::vector<int> shard_of, std::vector<int> class_of)
{
    GCOD_ASSERT(shard_of.size() == size_t(g.numNodes()) &&
                    class_of.size() == size_t(g.numNodes()),
                "assignment arrays must cover every node");
    ShardPlan plan;
    plan.numShards = num_shards;
    plan.numNodes = g.numNodes();
    plan.numClasses = num_classes;
    plan.shardOf = std::move(shard_of);
    plan.classOf = std::move(class_of);

    plan.shards.resize(size_t(num_shards));
    for (int s = 0; s < num_shards; ++s)
        plan.shards[size_t(s)].id = s;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        plan.shards[size_t(plan.shardOf[size_t(v)])].owned.push_back(v);

    // Per-shard halo derivation: independent scans over the owned rows,
    // one shard per pool range (the host-side shard-build parallelism).
    parallelFor(
        0, num_shards,
        [&](const Range &r, size_t) {
            for (int64_t s = r.begin; s < r.end; ++s)
                deriveShard(g, plan.shardOf, plan.shards[size_t(s)]);
        },
        1);

    finalizePlanStats(g, plan);
    return plan;
}

ShardPlan
buildShardPlan(const Graph &g, const ShardPlanOptions &opts)
{
    GCOD_ASSERT(opts.shards >= 1, "shard plan needs >= 1 shard");

    if (opts.shards == 1 || g.numNodes() == 0) {
        ShardPlan plan;
        plan.numShards = opts.shards;
        plan.numNodes = g.numNodes();
        plan.numClasses = 1;
        plan.shardOf.assign(size_t(g.numNodes()), 0);
        plan.classOf.assign(size_t(g.numNodes()), 0);
        plan.shards.resize(size_t(opts.shards));
        for (int s = 0; s < opts.shards; ++s)
            plan.shards[size_t(s)].id = s;
        Shard &only = plan.shards[0];
        only.owned.resize(size_t(g.numNodes()));
        std::iota(only.owned.begin(), only.owned.end(), 0);
        only.localToGlobal = only.owned;
        only.ownedNnz = g.adjacency().nnz();
        plan.pairRows.assign(size_t(opts.shards) * size_t(opts.shards), 0);
        plan.maxImbalance = opts.shards == 1 ? 1.0 : 0.0;
        return plan;
    }

    DegreeClasses dc = classifyBalanced(g, opts.degreeClasses);
    std::vector<int> shard_of = assignShards(g, dc, opts);
    return derivePlan(g, opts.shards, dc.numClasses, std::move(shard_of),
                      std::move(dc.classOf));
}

CsrMatrix
extractLocalOperator(const CsrMatrix &op, const Shard &shard,
                     NodeId num_nodes)
{
    GCOD_ASSERT(op.rows() == num_nodes && op.cols() == num_nodes,
                "operator shape does not match the plan graph");
    std::vector<NodeId> local_of(size_t(num_nodes), -1);
    for (size_t i = 0; i < shard.localToGlobal.size(); ++i)
        local_of[size_t(shard.localToGlobal[i])] = NodeId(i);
    const CsrMatrix rows = operatorRows(op, shard.owned);
    std::vector<NodeId> indices = rows.indices();
    for (NodeId &c : indices) {
        c = local_of[size_t(c)];
        GCOD_ASSERT(c >= 0, "operator entry outside the shard's local space "
                            "(pattern not contained in adjacency + self "
                            "loops)");
    }
    return CsrMatrix(shard.ownedCount(), shard.localCount(), rows.indptr(),
                     std::move(indices), rows.values());
}

Graph
localShardGraph(const Graph &g, const Shard &shard)
{
    std::vector<NodeId> local_of(size_t(g.numNodes()), -1);
    for (size_t i = 0; i < shard.localToGlobal.size(); ++i)
        local_of[size_t(shard.localToGlobal[i])] = NodeId(i);

    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(size_t(shard.ownedNnz));
    const CsrMatrix &adj = g.adjacency();
    NodeId owned = shard.ownedCount();
    for (NodeId lu = 0; lu < owned; ++lu) {
        adj.forEachInRow(shard.localToGlobal[size_t(lu)],
                         [&](NodeId v, float) {
                             NodeId lv = local_of[size_t(v)];
                             // Owned-owned edges appear from both rows;
                             // emit once. Owned-halo edges only exist on
                             // the owned side; the Graph constructor
                             // symmetrizes them.
                             if (lv < owned ? lu < lv : true)
                                 edges.emplace_back(lu, lv);
                         });
    }
    return Graph(shard.localCount(), edges);
}

} // namespace gcod::shard
