#include "nn/quant_exec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod {

const char *
opKindName(OpKind k)
{
    switch (k) {
    case OpKind::SpMM:
        return "SpMM";
    case OpKind::GEMM:
        return "GEMM";
    case OpKind::AttentionScore:
        return "AttentionScore";
    case OpKind::Residual:
        return "Residual";
    case OpKind::ConcatSelf:
        return "ConcatSelf";
    case OpKind::MaxAgg:
        return "MaxAgg";
    case OpKind::Activation:
        return "Activation";
    case OpKind::Readout:
        return "Readout";
    }
    return "?";
}

bool
isAggregation(OpKind k)
{
    return k == OpKind::SpMM || k == OpKind::MaxAgg ||
           k == OpKind::AttentionScore;
}

int
LayerGraph::aggOp() const
{
    for (size_t i = 0; i < ops.size(); ++i)
        if (isAggregation(ops[i].kind))
            return int(i);
    return -1;
}

bool
LayerGraph::readsSelf() const
{
    const int agg = aggOp();
    for (size_t i = 0; i < ops.size(); ++i)
        if (int(i) != agg && (ops[i].in == 0 || ops[i].aux == 0))
            return true;
    return false;
}

bool
supportsPlainMeanForward(const ModelSpec &spec)
{
    if (spec.layers.empty())
        return false;
    bool concat = spec.layers.front().concatSelf;
    for (const LayerSpec &l : spec.layers)
        if (l.agg != Aggregation::Mean || l.heads != 1 ||
            l.concatSelf != concat)
            return false;
    return true;
}

namespace {

enum class Family { PlainMean, SageMean, Gin, Gat, ResGcn, Unsupported };

Family
familyOf(const ModelSpec &spec)
{
    if (spec.layers.empty())
        return Family::Unsupported;
    auto uniform = [&](Aggregation agg, bool need_unit_heads) {
        for (const LayerSpec &l : spec.layers)
            if (l.agg != agg || (need_unit_heads && l.heads != 1))
                return false;
        return true;
    };
    if (supportsPlainMeanForward(spec))
        return spec.layers.front().concatSelf ? Family::SageMean
                                              : Family::PlainMean;
    auto noConcat = [&] {
        for (const LayerSpec &l : spec.layers)
            if (l.concatSelf)
                return false;
        return true;
    };
    if (uniform(Aggregation::Add, true) && noConcat())
        return Family::Gin;
    if (uniform(Aggregation::Attention, false) && noConcat())
        return Family::Gat;
    if (uniform(Aggregation::Max, true) && noConcat())
        return Family::ResGcn;
    return Family::Unsupported;
}

/** Append @p op to @p g, assigning it a fresh output slot. */
int
push(LayerGraph &g, OpStep op)
{
    op.out = g.numSlots++;
    g.ops.push_back(op);
    return op.out;
}

/** An op of @p kind reading slot @p in (and @p aux). */
OpStep
stepOf(OpKind kind, int in, int aux = -1)
{
    OpStep s;
    s.kind = kind;
    s.in = in;
    s.aux = aux;
    return s;
}

/** An aggregation of the layer input over operator 0. */
OpStep
aggregationOf(OpKind kind, int in = 0)
{
    OpStep s = stepOf(kind, in);
    s.opIndex = 0;
    return s;
}

OpStep
gemmOf(int in, size_t weight)
{
    OpStep s = stepOf(OpKind::GEMM, in);
    s.weight = int(weight);
    return s;
}

/**
 * Close a layer on slot @p z: Readout after the last layer, @p act
 * between layers. Returns the layer's output slot.
 */
int
closeLayer(LayerGraph &g, int z, bool last, ActKind act)
{
    if (last)
        return push(g, stepOf(OpKind::Readout, z));
    OpStep a = stepOf(OpKind::Activation, z);
    a.act = act;
    return push(g, a);
}

constexpr float kLeakySlope = 0.2f;

float
leaky(float x)
{
    return x > 0.0f ? x : kLeakySlope * x;
}

/** Per-head additive score a · h_v, ascending-feature accumulation. */
void
attentionScoreOf(const Matrix &h, const Matrix &a, int heads, int dim,
                 NodeId v, float *out)
{
    for (int k = 0; k < heads; ++k) {
        const float *hv = h.row(v) + int64_t(k) * dim;
        float sv = 0.0f;
        for (int f = 0; f < dim; ++f)
            sv += a(k, f) * hv[f];
        out[k] = sv;
    }
}

} // namespace

void
attentionWeightsInto(const CsrMatrix &adj, const Matrix &h,
                     const Matrix &a_src, const Matrix &a_dst, int heads,
                     int head_dim, NodeId r, NodeId self, NodeId *cols,
                     float *pre, float *alpha)
{
    size_t ne = 0;
    adj.forEachInRow(r, [&](NodeId j, float) { cols[ne++] = j; });
    cols[ne++] = self;

    // Scores s = aSrc · h_self, and t_j = aDst · h_j per edge (parked in
    // alpha until the softmax overwrites it). Each score is a pure
    // ascending-feature dot product.
    std::vector<float> srow(size_t(heads), 0.0f);
    attentionScoreOf(h, a_src, heads, head_dim, self, srow.data());
    for (size_t e = 0; e < ne; ++e)
        attentionScoreOf(h, a_dst, heads, head_dim, cols[e],
                         alpha + e * size_t(heads));

    // Numerically stable softmax per head over r's incident edges, in
    // three passes over the edges.
    for (int k = 0; k < heads; ++k) {
        float peak = -1e30f;
        for (size_t e = 0; e < ne; ++e) {
            float p = srow[size_t(k)] + alpha[e * size_t(heads) + size_t(k)];
            pre[e * size_t(heads) + size_t(k)] = p;
            peak = std::max(peak, leaky(p));
        }
        float denom = 0.0f;
        for (size_t e = 0; e < ne; ++e) {
            float ex =
                std::exp(leaky(pre[e * size_t(heads) + size_t(k)]) - peak);
            alpha[e * size_t(heads) + size_t(k)] = ex;
            denom += ex;
        }
        for (size_t e = 0; e < ne; ++e)
            alpha[e * size_t(heads) + size_t(k)] /= denom;
    }
}

void
attentionRowInto(const CsrMatrix &adj, const Matrix &h, const Matrix &a_src,
                 const Matrix &a_dst, int heads, int head_dim,
                 bool concat_heads, NodeId r, NodeId self, float *out_row)
{
    const size_t ne = size_t(adj.rowNnz(r)) + 1;
    std::vector<NodeId> cols(ne);
    std::vector<float> pre(ne * size_t(heads)), alpha(ne * size_t(heads));
    attentionWeightsInto(adj, h, a_src, a_dst, heads, head_dim, r, self,
                         cols.data(), pre.data(), alpha.data());

    // Aggregate values in edge -> head -> feature order.
    const int odim = concat_heads ? heads * head_dim : head_dim;
    std::fill(out_row, out_row + odim, 0.0f);
    for (size_t e = 0; e < ne; ++e) {
        NodeId j = cols[e];
        for (int k = 0; k < heads; ++k) {
            float a = alpha[e * size_t(heads) + size_t(k)];
            const float *hv = h.row(j) + int64_t(k) * head_dim;
            if (concat_heads) {
                float *ov = out_row + int64_t(k) * head_dim;
                for (int f = 0; f < head_dim; ++f)
                    ov[f] += a * hv[f];
            } else {
                float *ov = out_row;
                float inv = 1.0f / float(heads);
                for (int f = 0; f < head_dim; ++f)
                    ov[f] += inv * a * hv[f];
            }
        }
    }
}

namespace {

/** o = max(o, x) elementwise; a NaN or a tie keeps o (x86 maxps(x, o)). */
void
maxInto(float *__restrict o, const float *__restrict x, int64_t n)
{
    for (int64_t f = 0; f < n; ++f)
        o[f] = x[f] > o[f] ? x[f] : o[f];
}

} // namespace

void
maxAggRowInto(const CsrMatrix &adj, const Matrix &x, NodeId r, NodeId self,
              float *out_row)
{
    const int64_t cols = x.cols();
    std::memcpy(out_row, x.row(self), size_t(cols) * sizeof(float));
    adj.forEachInRow(r, [&](NodeId j, float) {
        maxInto(out_row, x.row(j), cols);
    });
}

namespace {

/** Row @p r of spmm: operator-row entry order, += v * x[c][j]. */
void
spmmRowInto(const CsrMatrix &adj, const Matrix &x, NodeId r, float *out)
{
    const int64_t cols = x.cols();
    std::fill(out, out + cols, 0.0f);
    adj.forEachInRow(r, [&](NodeId c, float v) {
        const float *xrow = x.row(c);
        for (int64_t j = 0; j < cols; ++j)
            out[j] += v * xrow[j];
    });
}

/**
 * Row @p r of a row-local op (Residual / ConcatSelf / Activation /
 * Readout): the one kernel both of runOp's forms run.
 */
void
rowLocalInto(const OpStep &op, const Matrix &in, const Matrix *aux,
             NodeId r, float *out)
{
    const float *x = in.row(r);
    const int64_t cols = in.cols();
    switch (op.kind) {
    case OpKind::Residual: {
        GCOD_ASSERT(aux != nullptr, "Residual needs its aux slot");
        // Two passes: the scaled aux is stored before the add, so no
        // fused multiply-add can contract them.
        const float *a = aux->row(r);
        for (int64_t j = 0; j < cols; ++j)
            out[j] = a[j] * op.scale;
        for (int64_t j = 0; j < cols; ++j)
            out[j] = x[j] + out[j];
        break;
    }
    case OpKind::ConcatSelf:
        GCOD_ASSERT(aux != nullptr, "ConcatSelf needs its aux slot");
        std::memcpy(out, aux->row(r), size_t(aux->cols()) * sizeof(float));
        std::memcpy(out + aux->cols(), x, size_t(cols) * sizeof(float));
        break;
    case OpKind::Activation:
        if (op.act == ActKind::Relu) {
            for (int64_t j = 0; j < cols; ++j)
                out[j] = std::max(x[j], 0.0f);
        } else {
            for (int64_t j = 0; j < cols; ++j)
                out[j] = x[j] < 0.0f ? std::exp(x[j]) - 1.0f : x[j];
        }
        break;
    case OpKind::Readout:
        std::memcpy(out, x, size_t(cols) * sizeof(float));
        break;
    default:
        GCOD_FATAL("op ", opKindName(op.kind), " is not row-local");
    }
}

} // namespace

bool
supportsRecipeForward(const ModelSpec &spec)
{
    return familyOf(spec) != Family::Unsupported;
}

const char *
supportedRecipeFamilies()
{
    return "plain-Mean (GCN), Mean+concat (GraphSAGE), Add (GIN), "
           "Attention (GAT), Max (ResGCN)";
}

namespace {

Family
requireFamily(const ModelSpec &spec)
{
    const Family fam = familyOf(spec);
    if (fam == Family::Unsupported)
        GCOD_FATAL("no op-graph recipe for model '", spec.name,
                   "': its layer stack matches no supported family "
                   "(supported: ", supportedRecipeFamilies(), ")");
    return fam;
}

} // namespace

std::vector<std::pair<int64_t, int64_t>>
recipeWeightShapes(const ModelSpec &spec)
{
    const Family fam = requireFamily(spec);
    std::vector<std::pair<int64_t, int64_t>> shapes;
    const int64_t hidden = spec.layers.front().outDim;
    for (const LayerSpec &l : spec.layers) {
        switch (fam) {
        case Family::PlainMean:
        case Family::ResGcn:
            shapes.emplace_back(l.inDim, l.outDim);
            break;
        case Family::SageMean:
            shapes.emplace_back(2 * int64_t(l.inDim), l.outDim);
            break;
        case Family::Gin:
            shapes.emplace_back(l.inDim, hidden);
            shapes.emplace_back(hidden, l.outDim);
            break;
        case Family::Gat:
            shapes.emplace_back(l.inDim, int64_t(l.heads) * l.outDim);
            shapes.emplace_back(l.heads, l.outDim);
            shapes.emplace_back(l.heads, l.outDim);
            break;
        case Family::Unsupported:
            break;
        }
    }
    return shapes;
}

ForwardRecipe
onLayerOperators(const ForwardRecipe &base, const std::vector<CsrMatrix> &ops)
{
    ForwardRecipe r = base;
    r.operators.clear();
    for (const CsrMatrix &op : ops)
        r.operators.push_back(&op);
    for (size_t l = 0; l < r.layers.size(); ++l)
        for (OpStep &op : r.layers[l].ops)
            if (op.kind == OpKind::SpMM)
                op.opIndex = int(l);
    return r;
}

CsrMatrix
sampleMeanOperator(const Graph &g, int k, Rng &rng)
{
    CooMatrix coo(g.numNodes(), g.numNodes());
    const CsrMatrix &adj = g.adjacency();
    std::vector<NodeId> nbrs;
    for (NodeId i = 0; i < g.numNodes(); ++i) {
        nbrs.clear();
        adj.forEachInRow(i, [&](NodeId j, float) { nbrs.push_back(j); });
        if (nbrs.empty())
            continue;
        if (int(nbrs.size()) > k) {
            rng.shuffle(nbrs);
            nbrs.resize(size_t(k));
        }
        float wgt = 1.0f / float(nbrs.size());
        for (NodeId j : nbrs)
            coo.add(i, j, wgt);
    }
    return std::move(coo).toCsr();
}

ForwardRecipe
forwardRecipeFor(const GnnModel &model, const GraphContext &ctx)
{
    const ModelSpec &spec = model.spec();
    const Family fam = requireFamily(spec);

    ForwardRecipe m;
    m.spec = &spec;
    for (const Matrix &w : model.weights())
        m.weights.push_back(&w);
    const size_t L = spec.layers.size();
    m.layers.resize(L);
    switch (fam) {
    case Family::PlainMean:
        m.operators = {&ctx.normalized()};
        break;
    case Family::SageMean:
        m.operators = {&ctx.rowMean()};
        break;
    default: // GIN, GAT and ResGCN aggregate over the binary adjacency.
        m.operators = {&ctx.binary()};
        break;
    }
    const size_t expected = recipeWeightShapes(spec).size();
    GCOD_ASSERT(m.weights.size() == expected, "model '", spec.name,
                "' carries ", m.weights.size(), " parameters but its ", L,
                "-layer recipe places ", expected);

    for (size_t l = 0; l < L; ++l) {
        LayerGraph &g = m.layers[l];
        const bool last = l + 1 == L;
        switch (fam) {
        case Family::PlainMean: {
            // GCN: Z = relu(Â X W) per hidden layer.
            int s = push(g, aggregationOf(OpKind::SpMM));
            closeLayer(g, push(g, gemmOf(s, l)), last, ActKind::Relu);
            break;
        }
        case Family::SageMean: {
            // GraphSAGE: Z = relu([X | mean(N) X] W). The canonical
            // recipe shares ONE row-mean operator; neighbor sampling
            // swaps in per-layer operators (onLayerOperators).
            int s = push(g, aggregationOf(OpKind::SpMM));
            int c = push(g, stepOf(OpKind::ConcatSelf, s, 0));
            closeLayer(g, push(g, gemmOf(c, l)), last, ActKind::Relu);
            break;
        }
        case Family::Gin: {
            // GIN: Z = MLP((1+eps) X + A X); eps is fixed at 0 (never
            // trained), so the residual scale is exactly 1.
            int s = push(g, aggregationOf(OpKind::SpMM));
            int r = push(g, stepOf(OpKind::Residual, s, 0));
            int h = push(g, gemmOf(r, 2 * l));
            int hr = push(g, stepOf(OpKind::Activation, h));
            closeLayer(g, push(g, gemmOf(hr, 2 * l + 1)), last,
                       ActKind::Relu);
            break;
        }
        case Family::Gat: {
            // GAT: h = X W, additive-attention aggregation, ELU between
            // layers. Heads > 1 concatenate (the hidden layers); one
            // head averages over itself, which is the same math.
            const LayerSpec &ls = spec.layers[l];
            int h = push(g, gemmOf(0, 3 * l));
            OpStep att = aggregationOf(OpKind::AttentionScore, h);
            att.aSrc = int(3 * l + 1);
            att.aDst = int(3 * l + 2);
            att.heads = ls.heads;
            att.concatHeads = ls.heads > 1;
            // LayerSpec::outDim is the PER-HEAD width for attention
            // layers (concatenated heads take heads * outDim columns);
            // the projection weight must agree.
            att.headDim = ls.outDim;
            GCOD_ASSERT(m.weights[3 * l]->cols() ==
                            int64_t(ls.heads) * ls.outDim,
                        "GAT projection must be heads x outDim wide");
            closeLayer(g, push(g, att), last, ActKind::Elu);
            break;
        }
        case Family::ResGcn: {
            // ResGCN: input conv + residual blocks + output conv, all
            // with Max aggregation over the closed neighborhood.
            int s = push(g, aggregationOf(OpKind::MaxAgg));
            int r = closeLayer(g, push(g, gemmOf(s, l)), last,
                               ActKind::Relu);
            if (!last && l > 0)
                push(g, stepOf(OpKind::Residual, r, 0));
            break;
        }
        case Family::Unsupported:
            break;
        }
    }
    return m;
}

std::vector<int64_t>
layerSlotWidths(const ForwardRecipe &m, size_t layer, int64_t input_cols)
{
    const LayerGraph &g = m.layers[layer];
    std::vector<int64_t> w(size_t(g.numSlots), 0);
    w[0] = input_cols;
    for (const OpStep &op : g.ops) {
        int64_t width = 0;
        switch (op.kind) {
        case OpKind::GEMM:
            width = m.weights[size_t(op.weight)]->cols();
            break;
        case OpKind::AttentionScore:
            width = op.concatHeads ? int64_t(op.heads) * op.headDim
                                   : int64_t(op.headDim);
            break;
        case OpKind::ConcatSelf:
            width = w[size_t(op.aux)] + w[size_t(op.in)];
            break;
        default:
            width = w[size_t(op.in)];
            break;
        }
        w[size_t(op.out)] = width;
    }
    return w;
}

std::vector<uint8_t>
protectedBranchOf(const std::vector<int32_t> &degrees, double protect_ratio)
{
    int32_t threshold = protectionThreshold(degrees, protect_ratio);
    std::vector<uint8_t> branch(degrees.size());
    for (size_t i = 0; i < degrees.size(); ++i)
        branch[i] = degrees[i] >= threshold ? 1 : 0;
    return branch;
}

double
QuantizedGnn::packedBytes() const
{
    double total = 0.0;
    for (const QuantizedCsr &q : qops)
        total += double(q.values.size()) * 2.0;
    for (const QuantizedMatrix &w : wLo)
        total += w.payloadBytes();
    for (const QuantizedMatrix &w : wHi)
        total += w.payloadBytes();
    return total;
}

void
QuantizedGnn::rebuildDequantized()
{
    wDeq.assign(recipe.weights.size(), Matrix());
    for (const LayerGraph &g : recipe.layers)
        for (const OpStep &op : g.ops)
            if (op.kind == OpKind::AttentionScore) {
                if (wDeq[size_t(op.aSrc)].rows() == 0)
                    wDeq[size_t(op.aSrc)] = wHi[size_t(op.aSrc)].toMatrix();
                if (wDeq[size_t(op.aDst)].rows() == 0)
                    wDeq[size_t(op.aDst)] = wHi[size_t(op.aDst)].toMatrix();
            }
}

QuantizedGnn
quantizeGnn(const ForwardRecipe &m, const std::vector<int32_t> &degrees,
            const MixedPrecisionPolicy &policy)
{
    GCOD_ASSERT(!m.operators.empty() &&
                    degrees.size() == size_t(m.operators[0]->rows()),
                "degree count must match the operator");
    GCOD_ASSERT(policy.denseBits <= policy.sparseBits,
                "dense branch must not be wider than the sparse branch");
    QuantizedGnn q;
    q.recipe = m;
    q.policy = policy;
    q.branchOf = protectedBranchOf(degrees, policy.protectRatio);
    q.localIndex = branchLocalIndex(q.branchOf);
    for (uint8_t b : q.branchOf)
        q.protectedCount += b != 0;
    // Only SpMM-consumed operators run on integer kernels; attention and
    // Max aggregations interpret their operator's pattern in fp32.
    std::vector<bool> integerOp(m.operators.size(), false);
    for (const LayerGraph &g : m.layers)
        for (const OpStep &op : g.ops)
            if (op.kind == OpKind::SpMM)
                integerOp[size_t(op.opIndex)] = true;
    q.qops.resize(m.operators.size());
    for (size_t i = 0; i < m.operators.size(); ++i)
        if (integerOp[i])
            q.qops[i] = quantizeCsr(*m.operators[i], policy.operatorBits);
    q.wLo.reserve(m.weights.size());
    q.wHi.reserve(m.weights.size());
    for (const Matrix *w : m.weights) {
        q.wLo.emplace_back(*w, policy.denseBits);
        q.wHi.emplace_back(*w, policy.sparseBits);
    }
    q.rebuildDequantized();
    return q;
}

void
packOp(const QuantizedGnn *q, const OpStep &op, const Matrix &in,
       OpPack &pack, const std::vector<NodeId> *rows)
{
    if (q == nullptr)
        return;
    if (op.kind == OpKind::SpMM) {
        GCOD_ASSERT(q->qops[size_t(op.opIndex)].pattern != nullptr,
                    "SpMM operator missing from the quantization pack");
        pack.op = &q->qops[size_t(op.opIndex)];
        pack.packed = mixedQuantize(in, q->branchOf, q->localIndex,
                                    q->policy.denseBits,
                                    q->policy.sparseBits);
        pack.x = &pack.packed;
    } else if (op.kind == OpKind::GEMM) {
        // Per-row activation scales: aggregation (Add in particular)
        // spreads per-row magnitudes across orders of magnitude, and one
        // per-branch scale starves the small rows of codes. A row's own
        // scale factors out of its dot products exactly, so this stays
        // bit-identical across threads/shards/row subsets. SpMM keeps
        // per-branch scales — it mixes rows in one accumulator.
        if (rows != nullptr) {
            pack.branch.resize(rows->size());
            for (size_t k = 0; k < rows->size(); ++k)
                pack.branch[k] = q->branchOf[size_t((*rows)[k])];
        }
        pack.rows = rowQuantize(in, rows != nullptr ? pack.branch
                                                    : q->branchOf,
                                q->policy.denseBits, q->policy.sparseBits);
    }
}

void
runOp(const ForwardRecipe &m, const QuantizedGnn *q, const OpStep &op,
      const Matrix &in, const Matrix *aux, const OpPack &pack, Matrix &out,
      const RowSetLevel *level)
{
    const CsrMatrix *adj = nullptr;
    if (op.opIndex >= 0)
        adj = level != nullptr ? &level->op : m.operators[size_t(op.opIndex)];
    // The row kernel over @p n rows into a fresh @p width slot: serially
    // over a level, row k reading its own input row at level->self[k]
    // (rows[k] when self is empty), or in parallel over every row.
    auto rowKernel = [&](int64_t n, int64_t width, int64_t grain,
                         auto &&rowInto) {
        out = Matrix(n, width);
        if (level != nullptr) {
            for (int64_t k = 0; k < n; ++k)
                rowInto(NodeId(k),
                        level->self.empty() ? level->rows[size_t(k)]
                                            : level->self[size_t(k)],
                        out.row(k));
            return;
        }
        ParallelZone zone(opKindName(op.kind));
        parallelFor(
            0, n,
            [&](const Range &rg, size_t) {
                for (int64_t i = rg.begin; i < rg.end; ++i)
                    rowInto(NodeId(i), NodeId(i), out.row(i));
            },
            grain);
    };
    switch (op.kind) {
    case OpKind::SpMM:
        if (q != nullptr)
            out = qspmmMixed(*pack.op, *pack.x);
        else if (level != nullptr)
            rowKernel(adj->rows(), in.cols(), 0,
                      [&](NodeId r, NodeId, float *o) {
                          spmmRowInto(*adj, in, r, o);
                      });
        else
            out = spmm(*adj, in);
        break;
    case OpKind::GEMM: {
        if (q != nullptr) {
            out = qmatmulRowScaled(pack.rows, q->wLo[size_t(op.weight)],
                                   q->wHi[size_t(op.weight)]);
            break;
        }
        const Matrix &w = *m.weights[size_t(op.weight)];
        if (level != nullptr)
            rowKernel(in.rows(), w.cols(), 0,
                      [&](NodeId r, NodeId, float *o) {
                          matmulRowInto(in.row(r), w, o);
                      });
        else
            out = matmul(in, w);
        break;
    }
    case OpKind::AttentionScore: {
        // int8 runs it in fp32 over the quantized projection, with the
        // attention vectors dequantized from their sparse-branch pack —
        // this is where low bits fall off the accuracy cliff.
        const Matrix &as = q != nullptr ? q->wDeq[size_t(op.aSrc)]
                                        : *m.weights[size_t(op.aSrc)];
        const Matrix &ad = q != nullptr ? q->wDeq[size_t(op.aDst)]
                                        : *m.weights[size_t(op.aDst)];
        GCOD_ASSERT(in.cols() == int64_t(op.heads) * op.headDim,
                    "attention input must be heads x headDim wide");
        rowKernel(adj->rows(),
                  op.concatHeads ? int64_t(op.heads) * op.headDim
                                 : int64_t(op.headDim),
                  16, [&](NodeId r, NodeId self, float *o) {
                      attentionRowInto(*adj, in, as, ad, op.heads,
                                       op.headDim, op.concatHeads, r, self,
                                       o);
                  });
        break;
    }
    case OpKind::MaxAgg:
        rowKernel(adj->rows(), in.cols(), 64,
                  [&](NodeId r, NodeId self, float *o) {
                      maxAggRowInto(*adj, in, r, self, o);
                  });
        break;
    default: {
        const int64_t width =
            op.kind == OpKind::ConcatSelf ? aux->cols() + in.cols()
                                          : in.cols();
        rowKernel(in.rows(), width, rowGrain(width),
                  [&](NodeId r, NodeId, float *o) {
                      rowLocalInto(op, in, aux, r, o);
                  });
        break;
    }
    }
}

Matrix &
forwardLayer(const ForwardRecipe &m, const QuantizedGnn *q, size_t layer,
             const Matrix &input, std::vector<Matrix> &slots)
{
    const LayerGraph &g = m.layers[layer];
    GCOD_ASSERT(!g.ops.empty(), "empty layer graph");
    slots.assign(size_t(g.numSlots), Matrix());
    auto at = [&](int s) -> const Matrix & {
        return s == 0 ? input : slots[size_t(s)];
    };
    for (const OpStep &op : g.ops) {
        OpPack pack;
        packOp(q, op, at(op.in), pack);
        runOp(m, q, op, at(op.in), op.aux >= 0 ? &at(op.aux) : nullptr,
              pack, slots[size_t(op.out)]);
    }
    return slots[size_t(g.ops.back().out)];
}

Matrix
referenceForward(const ForwardRecipe &m, const Matrix &x)
{
    GCOD_ASSERT(!m.operators.empty() &&
                    x.rows() == int64_t(m.operators[0]->rows()),
                "activation rows must match the operator");
    Matrix cur = x;
    for (size_t l = 0; l < m.layers.size(); ++l) {
        std::vector<Matrix> slots;
        cur = std::move(forwardLayer(m, nullptr, l, cur, slots));
    }
    return cur;
}

const Matrix &
ForwardTape::at(const ForwardRecipe &m, size_t l, int s) const
{
    if (s != 0)
        return slots[l][size_t(s)];
    if (l == 0)
        return *input;
    return slots[l - 1][size_t(m.layers[l - 1].ops.back().out)];
}

Matrix
tapedForward(const ForwardRecipe &m, const Matrix &x, ForwardTape &tape)
{
    GCOD_ASSERT(!m.operators.empty() &&
                    x.rows() == int64_t(m.operators[0]->rows()),
                "activation rows must match the operator");
    tape.input = &x;
    tape.slots.resize(m.layers.size());
    const Matrix *cur = &x;
    for (size_t l = 0; l < m.layers.size(); ++l)
        cur = &forwardLayer(m, nullptr, l, *cur, tape.slots[l]);
    return *cur;
}

Matrix
quantizedForwardMixed(const QuantizedGnn &q, const Matrix &x)
{
    const ForwardRecipe &m = q.recipe;
    GCOD_ASSERT(!m.operators.empty() &&
                    x.rows() == int64_t(m.operators[0]->rows()),
                "activation rows must match the operator");
    Matrix cur = x;
    for (size_t l = 0; l < m.layers.size(); ++l) {
        std::vector<Matrix> slots;
        cur = std::move(forwardLayer(m, &q, l, cur, slots));
    }
    return cur;
}

CsrMatrix
operatorRows(const CsrMatrix &op, const std::vector<NodeId> &rows)
{
    std::vector<EdgeOffset> indptr(1, 0);
    std::vector<NodeId> indices;
    std::vector<float> values;
    for (NodeId r : rows) {
        op.forEachInRow(r, [&](NodeId c, float v) {
            indices.push_back(c);
            values.push_back(v);
        });
        indptr.push_back(EdgeOffset(indices.size()));
    }
    return CsrMatrix(NodeId(rows.size()), op.cols(), std::move(indptr),
                     std::move(indices), std::move(values));
}

std::vector<NodeId>
closedInputRows(const std::vector<NodeId> &rows, const CsrMatrix &op)
{
    std::vector<NodeId> in;
    in.reserve(rows.size() + op.indices().size());
    in.insert(in.end(), rows.begin(), rows.end());
    in.insert(in.end(), op.indices().begin(), op.indices().end());
    std::sort(in.begin(), in.end());
    in.erase(std::unique(in.begin(), in.end()), in.end());
    return in;
}

namespace {

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

} // namespace

void
runRowSetOp(const ForwardRecipe &m, const QuantizedGnn *q, size_t layer,
            size_t i, const RowSetLevel &lv, const Matrix &in,
            const OpPack *agg, Matrix *agg_in, std::vector<Matrix> &slots)
{
    const LayerGraph &g = m.layers[layer];
    const OpStep &op = g.ops[i];
    const int aggIdx = g.aggOp();
    const bool isAgg = int(i) == aggIdx;
    // Slot 0 of the other ops: the set's own input rows, gathered only
    // where an op outside the aggregation reads them. A level over every
    // row of its input reads it in place.
    const bool inPlace =
        lv.self.empty() && int64_t(lv.rows.size()) == in.rows();
    if (i == 0) {
        slots.assign(size_t(g.numSlots), Matrix());
        if (g.readsSelf() && !inPlace)
            slots[0] = gatherRows(in, lv.self.empty() ? lv.rows : lv.self);
    }
    auto at = [&](int s) -> const Matrix & {
        return s == 0 && inPlace ? in : slots[size_t(s)];
    };
    GCOD_ASSERT(!isAgg || op.in == 0 || agg_in != nullptr,
                "an aggregation of an in-layer slot reads its cache");
    const Matrix &src = isAgg ? (op.in == 0 ? in : *agg_in) : at(op.in);
    OpPack own;
    if (!isAgg)
        packOp(q, op, src, own, &lv.rows);
    GCOD_ASSERT(!isAgg || q == nullptr || op.kind != OpKind::SpMM ||
                    agg != nullptr,
                "an int8 row-set SpMM reads the caller's packed operands");
    Matrix &out = slots[size_t(op.out)];
    runOp(m, q, op, src, op.aux >= 0 ? &at(op.aux) : nullptr,
          isAgg && agg != nullptr ? *agg : own, out, &lv);
    if (agg_in != nullptr && op.out == g.ops[size_t(aggIdx)].in)
        for (size_t k = 0; k < lv.rows.size(); ++k)
            std::memcpy(agg_in->row(lv.self.empty() ? lv.rows[k]
                                                    : lv.self[k]),
                        out.row(int64_t(k)),
                        size_t(out.cols()) * sizeof(float));
}

Matrix
forwardRowSet(const ForwardRecipe &m, const QuantizedGnn *q, size_t layer,
              const RowSetLevel &lv, const Matrix &in, const OpPack *agg,
              Matrix *agg_in)
{
    const LayerGraph &g = m.layers[layer];
    GCOD_ASSERT(g.aggOp() >= 0, "a row-set layer needs an aggregation");
    GCOD_ASSERT(int64_t(lv.op.rows()) == int64_t(lv.rows.size()),
                "a row-set operator needs one row per row in the set");
    std::vector<Matrix> slots;
    for (size_t i = 0; i < g.ops.size(); ++i)
        runRowSetOp(m, q, layer, i, lv, in, agg, agg_in, slots);
    return std::move(slots[size_t(g.ops.back().out)]);
}

} // namespace gcod
