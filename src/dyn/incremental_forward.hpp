/**
 * @file
 * Dirty-row incremental fp32 forward pass over op-graph recipes.
 *
 * Holds every layer's activation matrix — plus, for layers whose
 * aggregation input is produced inside the layer (GAT's h = X W), that
 * aggregation-input matrix — for one epoch. On update, clean rows are
 * copied forward verbatim and only the dirty rows of each layer
 * (dirty.hpp level sets) are recomputed, op by op, on nn/quant_exec's
 * fp32 row worker (runRowOps / layerRowInto), which mirrors the batch
 * kernels' per-element accumulation order exactly.
 *
 * Since the batch kernels guarantee thread-count-invariant per-element
 * accumulation (see tensor/ops.cpp), a per-row recompute in the same
 * order is bit-identical to a full referenceForward over the final
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
