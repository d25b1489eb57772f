#include "dyn/incremental_forward.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace gcod::dyn {

namespace {

/** @p prev with zero rows appended up to @p n rows. */
Matrix
grown(const Matrix &prev, int64_t n)
{
    Matrix out(n, prev.cols());
    std::memcpy(out.row(0), prev.row(0),
                size_t(prev.size()) * sizeof(float));
    return out;
}

} // namespace

IncrementalForward
IncrementalForward::fromScratch(const ForwardRecipe &m, const Matrix &x)
{
    return pass(m, x, nullptr, nullptr);
}

IncrementalForward
IncrementalForward::applied(const ForwardRecipe &m, const Matrix &x,
                            const std::vector<DirtyRegion> &levels) const
{
    GCOD_ASSERT(!acts_.empty(), "applied() needs a fromScratch state");
    GCOD_ASSERT(levels.size() == m.layers.size(),
                "need one dirty level per layer");
    GCOD_ASSERT(x.rows() >= acts_.front().rows(),
                "node space shrank across epochs");
    return pass(m, x, this, &levels);
}

IncrementalForward
IncrementalForward::pass(const ForwardRecipe &m, const Matrix &x,
                         const IncrementalForward *prev,
                         const std::vector<DirtyRegion> *levels)
{
    const size_t num_layers = m.layers.size();
    IncrementalForward next;
    next.acts_.reserve(num_layers);
    next.aggIn_.reserve(num_layers);
    const Matrix *input = &x;
    for (size_t l = 0; l < num_layers; ++l) {
        const LayerGraph &g = m.layers[l];
        const int aggIdx = g.aggOp();
        GCOD_ASSERT(aggIdx >= 0,
                    "incremental recompute needs one aggregation per layer");
        const int aggIn = g.ops[size_t(aggIdx)].in;
        const int fin = g.ops.back().out;
        std::vector<Matrix> slots(size_t(g.numSlots));
        const std::vector<NodeId> *rows = nullptr;
        if (prev != nullptr) {
            // Clean rows travel verbatim from the previous epoch; new
            // rows are always in the dirty level, so their zero fill is
            // never read. The aggregation-input cache is refreshed
            // before the aggregation reads it: its row j is a row-local
            // function of input row j, and every changed input row is in
            // this level, whose closed-hop expansion also dirties every
            // output row that reads row j.
            rows = &(*levels)[l].nodes;
            slots[size_t(fin)] = grown(prev->acts_[l], x.rows());
            if (aggIn != 0)
                slots[size_t(aggIn)] = grown(prev->aggIn_[l], x.rows());
            next.lastDirtyRows_ += rows->size();
        } else {
            next.lastDirtyRows_ += size_t(x.rows());
        }
        forwardLayer(m, nullptr, l, *input, rows, slots);
        next.aggIn_.push_back(aggIn != 0 ? std::move(slots[size_t(aggIn)])
                                         : Matrix());
        next.acts_.push_back(std::move(slots[size_t(fin)]));
        input = &next.acts_.back();
    }
    return next;
}

} // namespace gcod::dyn
