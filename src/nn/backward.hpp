/**
 * @file
 * Training through the op graph that serving runs. tapedForward()
 * (nn/quant_exec.hpp) keeps every slot of the fp32 forward; backward
 * walks the layers and their ops in reverse with one rule per OpKind:
 *
 *  - SpMM: dX = Aᵀ · dY (A itself when it is symmetric);
 *  - GEMM: dW = Xᵀ · dY, dX = dY · Wᵀ;
 *  - AttentionScore: the softmax-attention Jacobian, with the edge
 *    weights recomputed from the taped projection; fills the attention
 *    vectors' gradients too;
 *  - MaxAgg: each entry routed to the row that won its max (self first,
 *    then neighbors in row order, first wins ties);
 *  - Activation: ReLU and ELU; Residual: dIn = dY, dAux = scale · dY;
 *    ConcatSelf: dY split by columns; Readout: identity.
 *
 * A slot read by two ops gets two contributions, each computed into its
 * own buffer and then summed. The gradient of the features (layer 0's
 * input) is never formed. Every rule runs in a fixed order, so
 * gradients are bit-identical at any thread count.
 */
#ifndef GCOD_NN_BACKWARD_HPP
#define GCOD_NN_BACKWARD_HPP

#include "nn/dataset.hpp"
#include "nn/quant_exec.hpp"

namespace gcod {

/**
 * Backpropagate @p dlogits through @p tape, a tapedForward of @p m, and
 * write each weight's gradient into grads[i] (parallel to m.weights).
 * @p transposes is parallel to m.operators: each SpMM operator's
 * transpose.
 */
void backwardPass(const ForwardRecipe &m,
                  const std::vector<const CsrMatrix *> &transposes,
                  const ForwardTape &tape, const Matrix &dlogits,
                  const std::vector<Matrix *> &grads);

/**
 * A model's op graph over one context, taped for training. Holds the
 * operators a pass runs — the full ones, or this epoch's neighbor
 * sample when the model has fanouts — and each operator's transpose:
 * the context's Â and binary adjacency are symmetric and stand for
 * themselves, anything else is transposed once per operator.
 */
class TrainingGraph
{
  public:
    TrainingGraph(GnnModel &model, const GraphContext &ctx);

    /**
     * Swap in a fresh neighbor sample, one sampleMeanOperator per layer
     * drawn from @p rng in layer order; a no-op without model fanouts.
     */
    void resample(Rng &rng);

    /** Taped fp32 forward of @p x, which must outlive backward(). */
    Matrix forward(const Matrix &x);

    /** Backpropagate through the last forward into model.gradients(). */
    void backward(const Matrix &dlogits);

    /**
     * One training pass on @p ds: resample, forward, softmax
     * cross-entropy over the train mask (into @p loss when set), then
     * backward. Returns the logits.
     */
    Matrix step(const Dataset &ds, Rng &rng, double *loss = nullptr);

  private:
    void useOperators(ForwardRecipe recipe);

    GnnModel &model_;
    const GraphContext &ctx_;
    ForwardRecipe full_;
    ForwardRecipe recipe_;
    std::vector<CsrMatrix> sampled_;
    std::vector<CsrMatrix> ownedTransposes_;
    std::vector<const CsrMatrix *> transposes_;
    ForwardTape tape_;
};

} // namespace gcod

#endif // GCOD_NN_BACKWARD_HPP
