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

/** Sorted union of @p rows and every column @p op reads. */
std::vector<NodeId>
closedInputRows(const std::vector<NodeId> &rows, const CsrMatrix &op)
{
    std::vector<NodeId> in = rows;
    in.insert(in.end(), op.indices().begin(), op.indices().end());
    std::sort(in.begin(), in.end());
    in.erase(std::unique(in.begin(), in.end()), in.end());
    return in;
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

/** Rows @p rows of @p x, in that order. */
Matrix
gatherRows(const Matrix &x, const std::vector<NodeId> &rows)
{
    Matrix out(int64_t(rows.size()), x.cols());
    for (size_t k = 0; k < rows.size(); ++k)
        std::memcpy(out.row(int64_t(k)), x.row(rows[k]),
                    size_t(x.cols()) * sizeof(float));
    return out;
}

/** forwardRows at @p q's precision: @p op over the packed @p agg_in. */
Matrix
quantizedRows(const QuantizedGnn &q, size_t layer, const Matrix &self,
              const std::vector<uint8_t> &branch_of, const QuantizedCsr &op,
              const MixedQuantizedMatrix &agg_in)
{
    OpPack spmm_in;
    spmm_in.op = &op;
    spmm_in.x = &agg_in;
    return forwardRows(q.recipe, &q, layer, self, &branch_of, spmm_in);
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
    std::vector<NodeId> indices;
    std::vector<float> values;
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
    std::vector<NodeId> all(size_t(g.numNodes()));
    std::iota(all.begin(), all.end(), NodeId(0));
    return sampledMeanRows(g, fanout, seed, layer, all);
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
    const size_t L = base.layers.size();
    // Top-down: out[l] holds the sorted rows layer l must produce. Layer
    // l reads each of them plus its sampled neighbors, which is out[l-1];
    // its operator rows are renumbered into out[l-1]'s positions. Layer 0
    // reads the features by node id.
    std::vector<std::vector<NodeId>> out(L);
    std::vector<CsrMatrix> ops(L);
    out[L - 1] = {target};
    for (size_t l = L; l-- > 0;) {
        ops[l] = sampledMeanRows(g, fanout, seed, int(l), out[l]);
        if (l > 0) {
            out[l - 1] = closedInputRows(out[l], ops[l]);
            ops[l] = remapColumns(ops[l], out[l - 1]);
        }
    }
    const ForwardRecipe sub = onLayerOperators(base, ops);

    Matrix cur;
    size_t interpreted = 0;
    for (size_t l = 0; l < L; ++l) {
        // Layer 0's operator columns are node ids into the features;
        // deeper ones index the previous compact layer.
        const Matrix &in = l == 0 ? x : cur;
        OpPack spmm_in;
        spmm_in.in = &in;
        Matrix self;
        if (sub.layers[l].readsSelf()) {
            std::vector<NodeId> at = out[l];
            if (l > 0)
                for (NodeId &v : at)
                    v = NodeId(positionIn(out[l - 1], v));
            self = gatherRows(in, at);
        }
        cur = forwardRows(sub, nullptr, l, self, nullptr, spmm_in);
        interpreted += out[l].size();
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
    CsrMatrix op0 = sampledMeanOperator(g, fanout, 0, 0);
    QuantizedCsr q0 = quantizeCsr(op0, m.opParams);
    m.layer0 = quantizedRows(base, 0, x, base.branchOf, q0, m.input);
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
        CsrMatrix op = sampledMeanRows(g, fanout, seed, 0, memo.hubs);
        QuantizedCsr qop = quantizeCsr(op, memo.opParams);
        std::vector<uint8_t> branch(memo.hubs.size());
        for (size_t k = 0; k < branch.size(); ++k)
            branch[k] = branchOf[size_t(memo.hubs[k])];
        hubOut = quantizedRows(base, 0, gatherRows(x, memo.hubs), branch,
                               qop, memo.input);
        for (size_t k = 0; k < branch.size(); ++k)
            foldPeak(peak[branch[k]], hubOut.row(int64_t(k)),
                     hubOut.cols());
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
        CsrMatrix op = sampledMeanOperator(g, fanout, seed, int(l));
        QuantizedCsr qop = quantizeCsr(op, memo.opParams);
        MixedQuantizedMatrix packed =
            mixedQuantize(full, branchOf, base.localIndex,
                          base.policy.denseBits, base.policy.sparseBits);
        full = quantizedRows(base, l, full, branchOf, qop, packed);
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
        const size_t last = L - 1;
        const std::vector<NodeId> tgt = {target};
        CsrMatrix op = sampledMeanRows(g, fanout, seed, int(last), tgt);
        const std::vector<NodeId> in = closedInputRows(tgt, op);
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
        CsrMatrix opc = remapColumns(op, in);
        QuantizedCsr qop = quantizeCsr(opc, memo.opParams);
        Matrix self(1, width);
        std::memcpy(self.row(0), rowOf(target),
                    size_t(width) * sizeof(float));
        result = quantizedRows(base, last, self,
                               {branchOf[size_t(target)]}, qop, packed);
        interpreted += 1;
    }
    if (rows != nullptr)
        *rows = interpreted;
    return result;
}

} // namespace gcod
