/**
 * @file
 * Dirty-row incremental fp32 forward pass over op-graph recipes.
 *
 * Holds every layer's activation matrix — plus, for layers whose
 * aggregation input is produced inside the layer (GAT's h = X W), that
 * aggregation-input matrix — for one epoch. On update, each layer runs
 * through nn/quant_exec's one layer loop (forwardLayer) over its dirty
 * level only (dirty.hpp level sets), into output and aggregation-input
 * slots pre-filled from the previous epoch, so clean rows keep their
 * bytes.
 *
 * The row kernels runOp runs over a row set keep the batch kernels'
 * per-element accumulation order (see tensor/ops.cpp), so a dirty-row
 * recompute is bit-identical to a full referenceForward over the final
 * graph — the invariant the dyn test suite memcmp-checks. Soundness of
 * the aggregation-input cache: its row j changes only when input row j
 * changes, and every such j is inside the layer's dirty level, whose
 * closed-hop expansion also dirties every output row that reads row j.
 */
#ifndef GCOD_DYN_INCREMENTAL_FORWARD_HPP
#define GCOD_DYN_INCREMENTAL_FORWARD_HPP

#include "dyn/dirty.hpp"
#include "nn/quant_exec.hpp"

namespace gcod::dyn {

class IncrementalForward
{
  public:
    IncrementalForward() = default;

    /** Full pass (bit-identical to referenceForward), keeping all layers. */
    static IncrementalForward fromScratch(const ForwardRecipe &m,
                                          const Matrix &x);

    /** Final-layer logits of the current epoch. */
    const Matrix &logits() const { return acts_.back(); }

    /** Per-layer outputs (acts()[l] = layer l's post-activation). */
    const std::vector<Matrix> &activations() const { return acts_; }

    /** Dirty rows recomputed across all layers by the last applied(). */
    size_t lastDirtyRows() const { return lastDirtyRows_; }

    /**
     * Next epoch's state: @p m and @p x are the *new* recipe (operators
     * over the new graph) and feature matrix; @p levels are the
     * per-layer dirty sets (dirtyLevels, sized to the model depth).
     * Rows outside levels[l] are copied from this state unchanged.
     */
    IncrementalForward applied(const ForwardRecipe &m, const Matrix &x,
                               const std::vector<DirtyRegion> &levels) const;

  private:
    /**
     * One pass over every layer: over every row when @p prev is null,
     * else over each layer's dirty level into slots pre-filled from
     * @p prev.
     */
    static IncrementalForward pass(const ForwardRecipe &m, const Matrix &x,
                                   const IncrementalForward *prev,
                                   const std::vector<DirtyRegion> *levels);

    std::vector<Matrix> acts_;
    /**
     * Per layer, the aggregation op's input matrix when it is produced
     * inside the layer (empty when the aggregation reads the layer
     * input directly) — the incremental pass needs clean rows of it for
     * neighbors of dirty nodes.
     */
    std::vector<Matrix> aggIn_;
    size_t lastDirtyRows_ = 0;
};

} // namespace gcod::dyn

#endif // GCOD_DYN_INCREMENTAL_FORWARD_HPP
