#include "model_spec.hpp"

#include "nn/quant_exec.hpp"

namespace gcod {

ModelSpec
makeModelSpec(const std::string &model, int features, int classes, bool large)
{
    int hidden = large ? 64 : 16;
    ModelSpec spec;
    spec.name = model;
    if (model == "GCN") {
        spec.layers = {{features, hidden, Aggregation::Mean, 1, false},
                       {hidden, classes, Aggregation::Mean, 1, false}};
    } else if (model == "GIN") {
        spec.layers = {{features, hidden, Aggregation::Add, 1, false},
                       {hidden, hidden, Aggregation::Add, 1, false},
                       {hidden, classes, Aggregation::Add, 1, false}};
    } else if (model == "GAT") {
        // 8 hidden units x 8 heads, concatenated between layers.
        spec.layers = {{features, 8, Aggregation::Attention, 8, false},
                       {64, classes, Aggregation::Attention, 1, false}};
    } else if (model == "GraphSAGE") {
        spec.layers = {{features, hidden, Aggregation::Mean, 1, true},
                       {hidden, classes, Aggregation::Mean, 1, true}};
    } else if (model == "ResGCN") {
        spec.layers.push_back({features, 128, Aggregation::Max, 1, false});
        for (int i = 0; i < 26; ++i)
            spec.layers.push_back({128, 128, Aggregation::Max, 1, false});
        spec.layers.push_back({128, classes, Aggregation::Max, 1, false});
    } else {
        GCOD_FATAL("unknown model '", model, "'");
    }
    return spec;
}

int64_t
ModelSpec::weightCount() const
{
    int64_t total = 0;
    for (const auto &[rows, cols] : recipeWeightShapes(*this))
        total += rows * cols;
    return total;
}

} // namespace gcod
