#include "dyn/dirty.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace gcod::dyn {

DirtyRegion
DirtyRegion::of(NodeId num_nodes, std::vector<NodeId> seeds)
{
    DirtyRegion d;
    d.numNodes = num_nodes;
    d.mask.assign(size_t(num_nodes), 0);
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    for (NodeId v : seeds) {
        GCOD_ASSERT(v >= 0 && v < num_nodes,
                    "dirty seed outside the node space");
        d.mask[size_t(v)] = 1;
    }
    d.nodes = std::move(seeds);
    return d;
}

DirtyRegion
operatorDirty(const Graph &old_graph, const Graph &new_graph,
              const std::vector<NodeId> &touched)
{
    const NodeId old_n = old_graph.numNodes();
    std::vector<NodeId> seeds = touched;
    for (NodeId v : touched) {
        if (v < old_n)
            old_graph.adjacency().forEachInRow(
                v, [&](NodeId w, float) { seeds.push_back(w); });
        new_graph.adjacency().forEachInRow(
            v, [&](NodeId w, float) { seeds.push_back(w); });
    }
    return DirtyRegion::of(new_graph.numNodes(), std::move(seeds));
}

} // namespace gcod::dyn
