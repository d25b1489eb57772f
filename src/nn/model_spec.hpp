/**
 * @file
 * Shape-level description of a GNN model, shared between the trainable
 * implementations (src/nn) and the accelerator cost models (src/accel),
 * which only need layer dimensions and aggregation kinds to count MACs and
 * bytes. Mirrors the paper's Tab. IV.
 */
#ifndef GCOD_NN_MODEL_SPEC_HPP
#define GCOD_NN_MODEL_SPEC_HPP

#include <string>
#include <vector>

#include "sim/logging.hpp"

namespace gcod {

/** Aggregation operator per Tab. IV. */
enum class Aggregation { Mean, Add, Attention, Max };

/** One GNN layer's shape: input dim, output dim, aggregation. */
struct LayerSpec
{
    int inDim = 0;
    int outDim = 0;
    Aggregation agg = Aggregation::Mean;
    /** Attention heads (GAT); 1 otherwise. */
    int heads = 1;
    /** True when the layer concatenates self features (GraphSAGE). */
    bool concatSelf = false;
};

/** A whole model: named stack of layers. */
struct ModelSpec
{
    std::string name;
    std::vector<LayerSpec> layers;

    /**
     * Total weight parameter count: the entries of every matrix
     * recipeWeightShapes places (GIN's two MLP matrices, GAT's attention
     * vectors). Fatal for a spec no recipe lowers.
     */
    int64_t weightCount() const;
};

/**
 * Build the paper's model specs (Tab. IV): hidden dim 16 for the citation
 * graphs and 64 for NELL/Reddit; GAT uses 8 hidden x 8 heads; ResGCN is 28
 * layers x 128 hidden.
 *
 * @param model     one of "GCN", "GIN", "GAT", "GraphSAGE", "ResGCN"
 * @param features  dataset input feature dimension
 * @param classes   dataset label classes
 * @param large     true for NELL/Reddit-sized datasets (hidden dim 64)
 */
ModelSpec makeModelSpec(const std::string &model, int features, int classes,
                        bool large);

} // namespace gcod

#endif // GCOD_NN_MODEL_SPEC_HPP
