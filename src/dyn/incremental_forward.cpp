#include "dyn/incremental_forward.hpp"

#include <algorithm>
#include <cstring>

#include "sim/logging.hpp"

namespace gcod::dyn {

IncrementalForward
IncrementalForward::fromScratch(const ForwardRecipe &m, const Matrix &x)
{
    IncrementalForward st;
    st.acts_.reserve(m.layers.size());
    st.aggIn_.reserve(m.layers.size());
    Matrix cur = x;
    for (size_t l = 0; l < m.layers.size(); ++l) {
        Matrix aggIn;
        Matrix z = referenceForwardLayer(m, l, cur, &aggIn);
        st.aggIn_.push_back(std::move(aggIn));
        st.acts_.push_back(z);
        cur = std::move(z);
    }
    st.lastDirtyRows_ = size_t(x.rows()) * m.layers.size();
    return st;
}

IncrementalForward
IncrementalForward::applied(const ForwardRecipe &m, const Matrix &x,
                            const std::vector<DirtyRegion> &levels) const
{
    const size_t num_layers = m.layers.size();
    GCOD_ASSERT(!acts_.empty(), "applied() needs a fromScratch state");
    GCOD_ASSERT(levels.size() == num_layers,
                "need one dirty level per layer");
    const int64_t n = x.rows();
    const int64_t old_n = acts_.front().rows();
    GCOD_ASSERT(n >= old_n, "node space shrank across epochs");

    IncrementalForward next;
    next.acts_.reserve(num_layers);
    next.aggIn_.reserve(num_layers);
    const Matrix *input = &x;
    for (size_t l = 0; l < num_layers; ++l) {
        const LayerGraph &g = m.layers[l];
        std::vector<int64_t> widths = layerSlotWidths(m, l, input->cols());
        const int aggIdx = g.aggOp();
        GCOD_ASSERT(aggIdx >= 0,
                    "incremental recompute needs one aggregation per layer");
        const OpStep &agg = g.ops[size_t(aggIdx)];
        RowSlots buf(size_t(g.numSlots));

        // Refresh the aggregation-input cache first: its row j is a
        // row-local function of input row j, and every changed input row
        // is inside this layer's dirty level, so recomputing exactly the
        // level's rows (clean recomputes are pure no-ops) leaves every
        // neighbor row the aggregation below will read up to date.
        Matrix aggMat;
        if (agg.in != 0) {
            const Matrix &prevAgg = aggIn_[l];
            GCOD_ASSERT(prevAgg.rows() == old_n &&
                            prevAgg.cols() == widths[size_t(agg.in)],
                        "aggregation-input cache shape drifted");
            aggMat = Matrix(n, widths[size_t(agg.in)], 0.0f);
            std::memcpy(aggMat.row(0), prevAgg.row(0),
                        size_t(old_n * prevAgg.cols()) * sizeof(float));
            for (NodeId r : levels[l].nodes) {
                runRowOps(m, l, 0, size_t(aggIdx), input->row(r), buf,
                          widths);
                std::memcpy(aggMat.row(r),
                            buf[size_t(agg.in)].data(),
                            size_t(widths[size_t(agg.in)]) *
                                sizeof(float));
            }
        }
        const Matrix &aggSrc = agg.in != 0 ? aggMat : *input;

        const Matrix &prev = acts_[l];
        const int fin = g.ops.back().out;
        GCOD_ASSERT(prev.cols() == widths[size_t(fin)],
                    "activation cache shape drifted");
        Matrix cur(n, prev.cols(), 0.0f);
        // Clean rows travel verbatim; new rows (>= old_n) are always in
        // the dirty level, so zero-init is never observed.
        std::memcpy(cur.row(0), prev.row(0),
                    size_t(old_n * prev.cols()) * sizeof(float));
        for (NodeId r : levels[l].nodes)
            layerRowInto(m, l, aggSrc, r, input->row(r), buf, widths,
                         cur.row(r));
        next.lastDirtyRows_ += levels[l].count();
        next.aggIn_.push_back(std::move(aggMat));
        next.acts_.push_back(std::move(cur));
        input = &next.acts_.back();
    }
    return next;
}

} // namespace gcod::dyn
