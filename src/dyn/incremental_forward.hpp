/**
 * @file
 * Dirty-row incremental fp32 forward pass over op-graph recipes.
 *
 * Holds every layer's activation matrix — plus, for layers whose
 * aggregation input is produced inside the layer (GAT's h = X W), that
 * aggregation-input matrix — for one epoch. On update, each layer runs
 * nn/quant_exec's compact executor (forwardRowSet) over its level of
 * dirtyPlan only, and its rows are scattered into a copy of the previous
 * epoch's output, so clean rows keep their bytes. A level that covers
 * every node runs the whole-matrix forwardLayer instead.
 *
 * The row kernels keep the batch kernels' per-element accumulation
 * order (see tensor/ops.cpp), so a dirty-row recompute is bit-identical
 * to a full referenceForward over the final graph — the invariant the
 * dyn test suite memcmp-checks. GAT's aggregation-input cache is written
 * only at the level's rows (recomputing the projection over the level's
 * input rows would roughly triple layer 0's GEMM rows). That is sound:
 * its row j changes only when input row j changes, and every such j is
 * in the level, whose closed hop also dirties every row that reads j.
 */
#ifndef GCOD_DYN_INCREMENTAL_FORWARD_HPP
#define GCOD_DYN_INCREMENTAL_FORWARD_HPP

#include "dyn/dirty.hpp"
#include "nn/quant_exec.hpp"

namespace gcod::dyn {

/**
 * The rows each layer of @p m recomputes after an update with
 * operator-dirty set @p d0: level 0 is D0, and level l is
 * closedInputRows of level l-1 — over the zoo's symmetric operator
 * patterns, every row that reads a changed input row. A level holds its
 * rows of the layer's aggregation operator (node-id columns), but none
 * once it covers every node.
 */
RowSetPlan dirtyPlan(const ForwardRecipe &m, const DirtyRegion &d0);

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
     * over the new graph) and feature matrix; @p d0 is the update's
     * operator-dirty set (DynUpdateStats::dirty). Rows outside
     * dirtyPlan(m, d0)'s levels are copied from this state unchanged.
     */
    IncrementalForward applied(const ForwardRecipe &m, const Matrix &x,
                               const DirtyRegion &d0) const;

  private:
    /**
     * One pass over every layer: over every row when @p prev is null,
     * else over each level of @p plan, scattered into copies of
     * @p prev's matrices.
     */
    static IncrementalForward pass(const ForwardRecipe &m, const Matrix &x,
                                   const IncrementalForward *prev,
                                   const RowSetPlan *plan);

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
