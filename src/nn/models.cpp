#include "models.hpp"

#include "nn/quant_exec.hpp"
#include "tensor/quant.hpp"

namespace gcod {

GnnModel::GnnModel(ModelSpec spec) : spec_(std::move(spec))
{
    for (const auto &[rows, cols] : recipeWeightShapes(spec_)) {
        weights_.emplace_back(rows, cols);
        grads_.emplace_back(rows, cols);
    }
}

GnnModel::GnnModel(ModelSpec spec, Rng &rng) : GnnModel(std::move(spec))
{
    std::vector<size_t> order(weights_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    if (spec_.layers.front().agg == Aggregation::Max && order.size() > 2) {
        // Input, output, then the residual blocks.
        order.erase(order.end() - 1);
        order.insert(order.begin() + 1, weights_.size() - 1);
    }
    for (size_t i : order)
        weights_[i].glorotInit(rng);
}

std::vector<Matrix *>
GnnModel::parameters()
{
    std::vector<Matrix *> ps;
    for (Matrix &w : weights_)
        ps.push_back(&w);
    return ps;
}

std::vector<Matrix *>
GnnModel::gradients()
{
    std::vector<Matrix *> gs;
    for (Matrix &g : grads_)
        gs.push_back(&g);
    return gs;
}

GnnModel
makeModel(const std::string &name, int features, int classes, bool large,
          Rng &rng)
{
    GnnModel model(makeModelSpec(name, features, classes, large), rng);
    if (name == "GraphSAGE")
        model.fanouts = {25, 10};
    return model;
}

FakeQuantizedWeights::FakeQuantizedWeights(GnnModel &model, int bits)
    : model_(model)
{
    for (Matrix *p : model_.parameters()) {
        masters_.push_back(*p);
        *p = fakeQuantize(*p, bits);
    }
}

FakeQuantizedWeights::~FakeQuantizedWeights()
{
    auto params = model_.parameters();
    for (size_t i = 0; i < params.size(); ++i)
        *params[i] = std::move(masters_[i]);
}

Matrix
quantizedForward(GnnModel &model, const GraphContext &ctx, const Matrix &x,
                 int bits)
{
    FakeQuantizedWeights quantized(model, bits);
    return referenceForward(forwardRecipeFor(model, ctx),
                            fakeQuantize(x, bits));
}

} // namespace gcod
