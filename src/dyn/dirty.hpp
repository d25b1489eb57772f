/**
 * @file
 * Dirty-region tracking: which rows downstream stages must recompute.
 *
 * Level-0 dirtiness is operator-level: a row r of the GCN-normalized
 * adjacency Â = D^{-1/2}(A+I)D^{-1/2} changes when r's own pattern or
 * degree changes, or when any neighbour's degree changes (the entry value
 * couples both endpoints' inverse-sqrt degrees). That is exactly
 * touched ∪ N_old(touched) ∪ N_new(touched). Each layer then propagates
 * dirtiness one closed hop over the *new* graph (dirtyPlan in
 * incremental_forward.hpp). The sets are supersets for value-dependence
 * (never subsets), so per-row recompute over them is always sound.
 */
#ifndef GCOD_DYN_DIRTY_HPP
#define GCOD_DYN_DIRTY_HPP

#include <vector>

#include "graph/graph.hpp"

namespace gcod::dyn {

/** A sorted node set with O(1) membership over [0, numNodes). */
struct DirtyRegion
{
    NodeId numNodes = 0;
    std::vector<NodeId> nodes; ///< sorted unique
    std::vector<char> mask;    ///< size numNodes, 1 = dirty

    static DirtyRegion of(NodeId num_nodes, std::vector<NodeId> seeds);

    bool
    contains(NodeId v) const
    {
        return v >= 0 && v < numNodes && mask[size_t(v)] != 0;
    }
    size_t count() const { return nodes.size(); }
    /** Dirty fraction of the node space (for staleness accounting). */
    double
    fraction() const
    {
        return numNodes ? double(nodes.size()) / double(numNodes) : 0.0;
    }
};

/**
 * Operator-level seeds D0 = touched ∪ N_old(touched) ∪ N_new(touched),
 * sized to the new graph's node space.
 */
DirtyRegion operatorDirty(const Graph &old_graph, const Graph &new_graph,
                          const std::vector<NodeId> &touched);

} // namespace gcod::dyn

#endif // GCOD_DYN_DIRTY_HPP
