#include "dyn/incremental_forward.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace gcod::dyn {

namespace {

/** @p prev with zero rows appended up to @p n rows. */
Matrix
grown(const Matrix &prev, int64_t n)
{
    if (prev.rows() == n)
        return prev;
    Matrix out(n, prev.cols());
    std::memcpy(out.row(0), prev.row(0),
                size_t(prev.size()) * sizeof(float));
    return out;
}

} // namespace

RowSetPlan
dirtyPlan(const ForwardRecipe &m, const DirtyRegion &d0)
{
    RowSetPlan plan;
    plan.resize(m.layers.size());
    std::vector<NodeId> rows = d0.nodes;
    for (size_t l = 0; l < plan.size(); ++l) {
        RowSetLevel &lv = plan[l];
        lv.rows = std::move(rows);
        if (lv.rows.size() == size_t(d0.numNodes)) {
            rows = lv.rows; // saturated: further hops are free
            continue;
        }
        const int agg = m.layers[l].aggOp();
        GCOD_ASSERT(agg >= 0,
                    "incremental recompute needs one aggregation per layer");
        const OpStep &op = m.layers[l].ops[size_t(agg)];
        lv.op = operatorRows(*m.operators[size_t(op.opIndex)], lv.rows);
        if (l + 1 < plan.size())
            rows = closedInputRows(lv.rows, lv.op);
    }
    return plan;
}

IncrementalForward
IncrementalForward::fromScratch(const ForwardRecipe &m, const Matrix &x)
{
    return pass(m, x, nullptr, nullptr);
}

IncrementalForward
IncrementalForward::applied(const ForwardRecipe &m, const Matrix &x,
                            const DirtyRegion &d0) const
{
    GCOD_ASSERT(!acts_.empty(), "applied() needs a fromScratch state");
    GCOD_ASSERT(x.rows() >= acts_.front().rows(),
                "node space shrank across epochs");
    GCOD_ASSERT(int64_t(d0.numNodes) == x.rows(),
                "dirty region must span the new node space");
    const RowSetPlan plan = dirtyPlan(m, d0);
    return pass(m, x, this, &plan);
}

IncrementalForward
IncrementalForward::pass(const ForwardRecipe &m, const Matrix &x,
                         const IncrementalForward *prev,
                         const RowSetPlan *plan)
{
    const size_t num_layers = m.layers.size();
    const int64_t n = x.rows();
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
        const RowSetLevel *lv =
            plan != nullptr ? &(*plan)[l] : nullptr;
        if (lv == nullptr || int64_t(lv->rows.size()) == n) {
            std::vector<Matrix> slots;
            forwardLayer(m, nullptr, l, *input, slots);
            next.aggIn_.push_back(aggIn != 0
                                      ? std::move(slots[size_t(aggIn)])
                                      : Matrix());
            next.acts_.push_back(
                std::move(slots[size_t(g.ops.back().out)]));
        } else {
            // Clean rows travel verbatim from the previous epoch; new
            // rows are in D0, so every one of them is recomputed.
            next.aggIn_.push_back(aggIn != 0 ? grown(prev->aggIn_[l], n)
                                             : Matrix());
            const Matrix part = forwardRowSet(
                m, nullptr, l, *lv, *input, nullptr,
                aggIn != 0 ? &next.aggIn_.back() : nullptr);
            Matrix out = grown(prev->acts_[l], n);
            for (size_t k = 0; k < lv->rows.size(); ++k)
                std::memcpy(out.row(lv->rows[k]), part.row(int64_t(k)),
                            size_t(out.cols()) * sizeof(float));
            next.acts_.push_back(std::move(out));
        }
        next.lastDirtyRows_ += lv != nullptr ? lv->rows.size() : size_t(n);
        input = &next.acts_.back();
    }
    return next;
}

} // namespace gcod::dyn
