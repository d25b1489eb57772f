#include "nn/neighbor_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "sim/logging.hpp"
#include "sim/rng.hpp"

namespace gcod {

bool
supportsSampledExecution(const ModelSpec &spec)
{
    return supportsPlainMeanForward(spec);
}

namespace {

/** Per-(seed, fanout, layer, node) stream seed; order-independent. */
uint64_t
rowSeed(uint64_t seed, int fanout, int layer, NodeId i)
{
    uint64_t mix = seed;
    mix ^= 0x9e3779b97f4a7c15ull * (uint64_t(layer) + 1);
    mix ^= 0xc2b2ae3d27d4eb4full * (uint64_t(uint32_t(i)) + 1);
    mix ^= 0x165667b19e3779f9ull * (uint64_t(fanout) + 1);
    return mix;
}

/** Fatal unless @p base is a sampled-servable recipe over @p g's nodes. */
void
requireSampled(const ForwardRecipe &base, const Graph &g)
{
    GCOD_ASSERT(base.spec != nullptr, "sampled execution needs a recipe");
    if (!supportsSampledExecution(*base.spec))
        GCOD_FATAL("model '", base.spec->name,
                   "' cannot serve sampled neighborhoods: only Mean-"
                   "aggregation stacks (GraphSAGE, GCN) support fanout "
                   "sampling");
    GCOD_ASSERT(g.numNodes() == (base.operators.empty()
                                     ? NodeId(0)
                                     : base.operators[0]->rows()),
                "sample graph must match the recipe's node space");
}

/** Position of @p v in the sorted @p level; -1 when absent. */
int64_t
positionIn(const std::vector<NodeId> &level, NodeId v)
{
    auto it = std::lower_bound(level.begin(), level.end(), v);
    return it != level.end() && *it == v ? it - level.begin() : -1;
}

/**
 * @p op with every column renumbered to its position in the sorted
 * @p level. The renumbering is monotone, so each row keeps its entry
 * order — and with it the aggregation's accumulation order.
 */
CsrMatrix
remapColumns(const CsrMatrix &op, const std::vector<NodeId> &level)
{
    std::vector<NodeId> idx(op.indices().size());
    for (size_t k = 0; k < idx.size(); ++k)
        idx[k] = NodeId(positionIn(level, op.indices()[k]));
    return CsrMatrix(op.rows(), NodeId(level.size()), op.indptr(),
                     std::move(idx), op.values());
}

/** Every node id of @p g, ascending. */
std::vector<NodeId>
everyNode(const Graph &g)
{
    std::vector<NodeId> all(size_t(g.numNodes()));
    std::iota(all.begin(), all.end(), NodeId(0));
    return all;
}

/**
 * Layer @p layer of a sampled plan over the sorted @p rows: their
 * sampled operator rows. With @p in set, it receives the rows those
 * read (closedInputRows) and the columns are renumbered into it, as
 * are the self positions where the layer reads its input outside the
 * aggregation (GraphSAGE's self concat); else both stay node ids (a
 * layer reading the features, or a whole layer input).
 */
RowSetLevel
sampledLevel(const ForwardRecipe &base, const Graph &g, int fanout,
             uint64_t seed, size_t layer, std::vector<NodeId> rows,
             std::vector<NodeId> *in)
{
    RowSetLevel lv;
    lv.op = sampledMeanRows(g, fanout, seed, int(layer), rows);
    if (in != nullptr) {
        *in = closedInputRows(rows, lv.op);
        lv.op = remapColumns(lv.op, *in);
        if (base.layers[layer].readsSelf()) {
            lv.self.reserve(rows.size());
            for (NodeId v : rows)
                lv.self.push_back(NodeId(positionIn(*in, v)));
        }
    }
    lv.rows = std::move(rows);
    return lv;
}

/** peak = max(peak, max |row|): chooseQuantParams's reduction, by row. */
void
foldPeak(float &peak, const float *row, int64_t cols)
{
    for (int64_t j = 0; j < cols; ++j)
        peak = std::max(peak, std::fabs(row[j]));
}

} // namespace

CsrMatrix
sampledMeanRows(const Graph &g, int fanout, uint64_t seed, int layer,
                const std::vector<NodeId> &rows)
{
    GCOD_ASSERT(fanout > 0, "sample fanout must be positive");
    const CsrMatrix &adj = g.adjacency();
    std::vector<EdgeOffset> indptr(rows.size() + 1, 0);
    // Each row keeps at most `fanout` entries, and no more than its
    // degree.
    const size_t bound = size_t(std::min<int64_t>(
        int64_t(rows.size()) * fanout, int64_t(adj.nnz())));
    std::vector<NodeId> indices;
    std::vector<float> values;
    indices.reserve(bound);
    values.reserve(bound);
    std::vector<NodeId> nb;
    for (size_t k = 0; k < rows.size(); ++k) {
        const NodeId i = rows[k];
        nb.clear();
        adj.forEachInRow(i, [&](NodeId j, float) { nb.push_back(j); });
        if (int64_t(nb.size()) > int64_t(fanout)) {
            // Partial Fisher-Yates: the first `fanout` positions are a
            // uniform sample without replacement, from a per-row stream.
            Rng rng(rowSeed(seed, fanout, layer, i));
            for (int t = 0; t < fanout; ++t) {
                int64_t j = rng.uniformInt(t, int64_t(nb.size()) - 1);
                std::swap(nb[size_t(t)], nb[size_t(j)]);
            }
            nb.resize(size_t(fanout));
        }
        std::sort(nb.begin(), nb.end());
        // Isolated nodes keep an all-zero row, like rowMean.
        if (!nb.empty()) {
            indices.insert(indices.end(), nb.begin(), nb.end());
            values.insert(values.end(), nb.size(), 1.0f / float(nb.size()));
        }
        indptr[k + 1] = EdgeOffset(indices.size());
    }
    return CsrMatrix(NodeId(rows.size()), g.numNodes(), std::move(indptr),
                     std::move(indices), std::move(values));
}

CsrMatrix
sampledMeanOperator(const Graph &g, int fanout, uint64_t seed, int layer)
{
    return sampledMeanRows(g, fanout, seed, layer, everyNode(g));
}

QuantParams
sampledOperatorParams(const Graph &g, int fanout, int bits)
{
    GCOD_ASSERT(fanout > 0, "sample fanout must be positive");
    // Row i holds min(deg i, fanout) equal values 1/that; correctly
    // rounded division is monotone, so the shortest nonempty row holds
    // the peak quantizeCsr would find.
    EdgeOffset shortest = 0;
    for (NodeId i = 0; i < g.numNodes(); ++i) {
        EdgeOffset len = std::min<EdgeOffset>(g.adjacency().rowNnz(i),
                                              EdgeOffset(fanout));
        if (len > 0 && (shortest == 0 || len < shortest))
            shortest = len;
    }
    return symmetricQuantParams(shortest > 0 ? 1.0f / float(shortest) : 0.0f,
                                bits);
}

SampledExecution
buildSampledExecution(const ForwardRecipe &base, const Graph &g, int fanout,
                      uint64_t seed)
{
    requireSampled(base, g);
    SampledExecution se;
    const size_t L = base.layers.size();
    se.ops.reserve(L);
    for (size_t l = 0; l < L; ++l)
        se.ops.push_back(sampledMeanOperator(g, fanout, seed, int(l)));
    se.recipe = onLayerOperators(base, se.ops);
    return se;
}

QuantizedGnn
quantizeSampled(const SampledExecution &se, const QuantizedGnn &base)
{
    QuantizedGnn q = base;
    q.recipe = se.recipe;
    q.qops.assign(q.recipe.operators.size(), QuantizedCsr{});
    for (size_t l = 0; l < q.recipe.operators.size(); ++l)
        q.qops[l] =
            quantizeCsr(*q.recipe.operators[l], q.policy.operatorBits);
    q.rebuildDequantized();
    return q;
}

Matrix
sampledForwardRow(const ForwardRecipe &base, const Graph &g, const Matrix &x,
                  int fanout, uint64_t seed, NodeId target, size_t *rows)
{
    requireSampled(base, g);
    GCOD_ASSERT(target >= 0 && target < g.numNodes(),
                "sampled target outside the node space");
    // The receptive field, top-down: level l holds the sorted rows layer
    // l must produce; layer l reads each of them plus its sampled
    // neighbors, which is level l-1. Layer 0's operator columns are node
    // ids into the features; deeper ones index the previous level.
    RowSetPlan plan(base.layers.size());
    std::vector<NodeId> out = {target};
    for (size_t l = plan.size(); l-- > 0;) {
        std::vector<NodeId> in;
        plan[l] = sampledLevel(base, g, fanout, seed, l, std::move(out),
                               l > 0 ? &in : nullptr);
        out = std::move(in);
    }
    const Matrix *in = &x;
    Matrix cur;
    size_t interpreted = 0;
    for (size_t l = 0; l < plan.size(); ++l) {
        cur = forwardRowSet(base, nullptr, l, plan[l], *in);
        in = &cur;
        interpreted += plan[l].rows.size();
    }
    if (rows != nullptr)
        *rows = interpreted;
    return cur;
}

SampledQuantMemo
buildSampledQuantMemo(const QuantizedGnn &base, const Graph &g,
                      const Matrix &x, int fanout)
{
    requireSampled(base.recipe, g);
    SampledQuantMemo m;
    m.fanout = fanout;
    m.opParams = sampledOperatorParams(g, fanout, base.policy.operatorBits);
    m.input = mixedQuantize(x, base.branchOf, base.localIndex,
                            base.policy.denseBits, base.policy.sparseBits);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        if (g.adjacency().rowNnz(i) > EdgeOffset(fanout))
            m.hubs.push_back(i);
    // Rows of degree <= fanout are whole whatever the seed, so one pass
    // over any seed's layer-0 operator fixes them; the hub rows it also
    // computes are placeholders that every query recomputes.
    const RowSetLevel lv0 =
        sampledLevel(base.recipe, g, fanout, 0, 0, everyNode(g), nullptr);
    QuantizedCsr q0 = quantizeCsr(lv0.op, m.opParams);
    const OpPack agg0(&q0, &m.input);
    m.layer0 = forwardRowSet(base.recipe, &base, 0, lv0, x, &agg0);
    size_t next_hub = 0;
    for (NodeId r = 0; r < g.numNodes(); ++r) {
        if (next_hub < m.hubs.size() && m.hubs[next_hub] == r) {
            ++next_hub;
            continue;
        }
        foldPeak(m.peak[base.branchOf[size_t(r)]], m.layer0.row(r),
                 m.layer0.cols());
    }
    return m;
}

Matrix
sampledQuantizedForwardRow(const QuantizedGnn &base,
                           const SampledQuantMemo &memo, const Graph &g,
                           const Matrix &x, uint64_t seed, NodeId target,
                           size_t *rows)
{
    GCOD_ASSERT(target >= 0 && target < g.numNodes(),
                "sampled target outside the node space");
    GCOD_ASSERT(memo.layer0.rows() == int64_t(g.numNodes()),
                "sampled memo belongs to another graph");
    const size_t L = base.recipe.layers.size();
    const int fanout = memo.fanout;
    const std::vector<uint8_t> &branchOf = base.branchOf;

    // Layer 0: only the hubs' rows depend on the seed.
    Matrix hubOut;
    float peak[2] = {memo.peak[0], memo.peak[1]};
    if (!memo.hubs.empty()) {
        const RowSetLevel hubs = sampledLevel(base.recipe, g, fanout, seed,
                                              0, memo.hubs, nullptr);
        QuantizedCsr qop = quantizeCsr(hubs.op, memo.opParams);
        const OpPack agg(&qop, &memo.input);
        hubOut = forwardRowSet(base.recipe, &base, 0, hubs, x, &agg);
        for (size_t k = 0; k < memo.hubs.size(); ++k)
            foldPeak(peak[branchOf[size_t(memo.hubs[k])]],
                     hubOut.row(int64_t(k)), hubOut.cols());
    }
    size_t interpreted = memo.hubs.size();

    // The input of the layer being run: memo rows with the hubs' rows
    // swapped in, until a middle layer materializes it whole.
    Matrix full;
    auto rowOf = [&](NodeId v) -> const float * {
        if (full.rows() > 0)
            return full.row(v);
        int64_t k = positionIn(memo.hubs, v);
        return k >= 0 ? hubOut.row(k) : memo.layer0.row(v);
    };

    // Middle layers of deeper stacks: their per-branch input scales
    // depend on every seed-dependent row, so they run over every node.
    for (size_t l = 1; l + 1 < L; ++l) {
        if (full.rows() == 0) {
            full = memo.layer0;
            for (size_t k = 0; k < memo.hubs.size(); ++k)
                std::memcpy(full.row(memo.hubs[k]), hubOut.row(int64_t(k)),
                            size_t(full.cols()) * sizeof(float));
        }
        const RowSetLevel mid = sampledLevel(base.recipe, g, fanout, seed,
                                             l, everyNode(g), nullptr);
        QuantizedCsr qop = quantizeCsr(mid.op, memo.opParams);
        MixedQuantizedMatrix packed =
            mixedQuantize(full, branchOf, base.localIndex,
                          base.policy.denseBits, base.policy.sparseBits);
        const OpPack agg(&qop, &packed);
        full = forwardRowSet(base.recipe, &base, l, mid, full, &agg);
        interpreted += size_t(full.rows());
        peak[0] = peak[1] = 0.0f;
        for (int64_t r = 0; r < full.rows(); ++r)
            foldPeak(peak[branchOf[size_t(r)]], full.row(r), full.cols());
    }

    Matrix result;
    if (L == 1) {
        // Layer 0 is the readout: the target's row is already computed.
        result = Matrix(1, memo.layer0.cols());
        std::memcpy(result.row(0), rowOf(target),
                    size_t(result.cols()) * sizeof(float));
    } else {
        // Last layer: the target's row alone, over its sampled input
        // rows packed at the whole input's per-branch scales.
        std::vector<NodeId> in;
        const RowSetLevel top = sampledLevel(base.recipe, g, fanout, seed,
                                             L - 1, {target}, &in);
        const int64_t width =
            full.rows() > 0 ? full.cols() : memo.layer0.cols();
        Matrix h(int64_t(in.size()), width);
        std::vector<uint8_t> branch(in.size());
        for (size_t k = 0; k < in.size(); ++k) {
            std::memcpy(h.row(int64_t(k)), rowOf(in[k]),
                        size_t(width) * sizeof(float));
            branch[k] = branchOf[size_t(in[k])];
        }
        const std::vector<int32_t> local = branchLocalIndex(branch);
        MixedQuantizedMatrix packed = mixedQuantize(
            h, branch, local,
            symmetricQuantParams(peak[0], base.policy.denseBits),
            symmetricQuantParams(peak[1], base.policy.sparseBits));
        QuantizedCsr qop = quantizeCsr(top.op, memo.opParams);
        const OpPack agg(&qop, &packed);
        result = forwardRowSet(base.recipe, &base, L - 1, top, h, &agg);
        interpreted += 1;
    }
    if (rows != nullptr)
        *rows = interpreted;
    return result;
}

} // namespace gcod
