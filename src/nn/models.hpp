/**
 * @file
 * The trainable GNN: one concrete type for the five families the paper
 * evaluates (Tab. IV) — GCN, GIN, GAT, GraphSAGE and ResGCN. A model is
 * its ModelSpec plus the weights of the op graph forwardRecipeFor()
 * lowers that spec into, and their gradients. There is no per-family
 * code: the forward is the recipe interpreter every serving path runs,
 * and training backpropagates through the same op graph, one rule per
 * OpKind (nn/backward.hpp).
 */
#ifndef GCOD_NN_MODELS_HPP
#define GCOD_NN_MODELS_HPP

#include <string>
#include <vector>

#include "nn/graph_context.hpp"
#include "nn/model_spec.hpp"
#include "sim/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace gcod {

/** A GNN's spec, its weights and their gradients. */
class GnnModel
{
  public:
    /**
     * Zeroed weights (and gradients) in the layout forwardRecipeFor
     * expects for @p spec (recipeWeightShapes) — for a caller that
     * overwrites every weight, such as a store load.
     */
    explicit GnnModel(ModelSpec spec);

    /**
     * Glorot-initialized weights in that layout, drawn from @p rng in
     * parameters() order — except that a Max (ResGCN) stack draws its
     * output layer right after its input layer, so seeded weights stay
     * what they always were.
     */
    GnnModel(ModelSpec spec, Rng &rng);

    const ModelSpec &spec() const { return spec_; }
    const std::string &name() const { return spec_.name; }

    /**
     * Trainable parameters, order-stable: the recipe's weight order,
     * which the store's Weights section depends on.
     */
    std::vector<Matrix *> parameters();

    /** Gradients parallel to parameters(). */
    std::vector<Matrix *> gradients();

    /** The parameters, read-only. */
    const std::vector<Matrix> &weights() const { return weights_; }

    /**
     * Per-layer neighbor fanouts that training draws afresh each epoch
     * (GraphSAGE: 25 and 10). Empty trains on the full operators.
     * Evaluation and serving always run the full operators.
     */
    std::vector<int> fanouts;

  private:
    ModelSpec spec_;
    std::vector<Matrix> weights_;
    std::vector<Matrix> grads_;
};

/**
 * Factory: makeModelSpec() plus Glorot init. GraphSAGE gets its paper
 * training fanouts (25, 10).
 */
GnnModel makeModel(const std::string &name, int features, int classes,
                   bool large, Rng &rng);

/**
 * Fake-quantized copies of a model's weights, swapped in for this
 * object's lifetime; the full-precision masters come back when it ends.
 */
class FakeQuantizedWeights
{
  public:
    FakeQuantizedWeights(GnnModel &model, int bits);
    ~FakeQuantizedWeights();
    FakeQuantizedWeights(const FakeQuantizedWeights &) = delete;
    FakeQuantizedWeights &operator=(const FakeQuantizedWeights &) = delete;

  private:
    GnnModel &model_;
    std::vector<Matrix> masters_;
};

/**
 * Run inference with fake-quantized weights and activations (the
 * GCoD (8-bit) variant) over the model's full operators.
 */
Matrix quantizedForward(GnnModel &model, const GraphContext &ctx,
                        const Matrix &x, int bits);

} // namespace gcod

#endif // GCOD_NN_MODELS_HPP
