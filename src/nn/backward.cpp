#include "nn/backward.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod {

namespace {

constexpr float kLeakySlope = 0.2f;

float
leakyGrad(float x)
{
    return x > 0.0f ? 1.0f : kLeakySlope;
}

Matrix
eluBackward(const Matrix &grad, const Matrix &pre)
{
    Matrix g = grad;
    for (size_t i = 0; i < g.data().size(); ++i)
        if (pre.data()[i] < 0.0f)
            g.data()[i] *= std::exp(pre.data()[i]);
    return g;
}

/**
 * MaxAgg: the gradient of the aggregation's input. Winners are found in
 * parallel (each row is pure); the scatter runs in row order.
 */
Matrix
maxAggBackward(const CsrMatrix &adj, const Matrix &x, const Matrix &dy)
{
    const NodeId n = adj.rows();
    const int64_t f = x.cols();
    std::vector<NodeId> winner(size_t(n) * size_t(f));
    parallelFor(
        0, n,
        [&](const Range &r, size_t) {
            std::vector<float> best(static_cast<size_t>(f));
            for (int64_t i = r.begin; i < r.end; ++i) {
                std::memcpy(best.data(), x.row(i), size_t(f) * sizeof(float));
                NodeId *w = winner.data() + size_t(i) * size_t(f);
                std::fill(w, w + f, NodeId(i));
                adj.forEachInRow(NodeId(i), [&](NodeId j, float) {
                    const float *xr = x.row(j);
                    for (int64_t c = 0; c < f; ++c)
                        if (xr[c] > best[size_t(c)]) {
                            best[size_t(c)] = xr[c];
                            w[c] = j;
                        }
                });
            }
        },
        64);
    Matrix dx(n, f, 0.0f);
    for (int64_t i = 0; i < n; ++i) {
        const float *d = dy.row(i);
        const NodeId *w = winner.data() + size_t(i) * size_t(f);
        for (int64_t c = 0; c < f; ++c)
            dx(w[c], c) += d[c];
    }
    return dx;
}

/**
 * AttentionScore: accumulates @p ga_src / @p ga_dst and returns the
 * gradient of the projection @p h. Edge weights are recomputed in
 * parallel (attentionWeightsInto); the accumulations run serially in
 * node, head, edge order.
 */
Matrix
attentionBackward(const CsrMatrix &adj, const Matrix &h, const Matrix &a_src,
                  const Matrix &a_dst, const OpStep &op, const Matrix &dout,
                  Matrix &ga_src, Matrix &ga_dst)
{
    const NodeId n = adj.rows();
    const int heads = op.heads;
    const int dim = op.headDim;
    const size_t H = size_t(heads);
    std::vector<EdgeOffset> rowPtr(size_t(n) + 1, 0);
    for (NodeId i = 0; i < n; ++i)
        rowPtr[size_t(i) + 1] = rowPtr[size_t(i)] + adj.rowNnz(i) + 1;
    std::vector<NodeId> cols(size_t(rowPtr.back()));
    std::vector<float> pre(cols.size() * H), alpha(cols.size() * H);
    parallelFor(
        0, n,
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i) {
                size_t e0 = size_t(rowPtr[size_t(i)]);
                attentionWeightsInto(adj, h, a_src, a_dst, heads, dim,
                                     NodeId(i), NodeId(i), cols.data() + e0,
                                     pre.data() + e0 * H,
                                     alpha.data() + e0 * H);
            }
        },
        16);

    Matrix dh(n, int64_t(heads) * dim, 0.0f);
    Matrix ds(n, heads, 0.0f), dt(n, heads, 0.0f);
    ga_src.fill(0.0f);
    ga_dst.fill(0.0f);
    const float head_scale = op.concatHeads ? 1.0f : 1.0f / float(heads);
    std::vector<float> dalpha;
    for (NodeId i = 0; i < n; ++i) {
        EdgeOffset begin = rowPtr[size_t(i)], end = rowPtr[size_t(i) + 1];
        dalpha.assign(size_t(end - begin) * H, 0.0f);
        for (int k = 0; k < heads; ++k) {
            const float *di = op.concatHeads ? dout.row(i) + int64_t(k) * dim
                                             : dout.row(i);
            // Value path: dalpha_e = d_i . h_j, dh_j += alpha d_i.
            float inner = 0.0f; // sum_e alpha_e dalpha_e (softmax backward)
            for (EdgeOffset e = begin; e < end; ++e) {
                NodeId j = cols[size_t(e)];
                const float *hv = h.row(j) + int64_t(k) * dim;
                float *dhj = dh.row(j) + int64_t(k) * dim;
                float a = alpha[size_t(e) * H + size_t(k)];
                float da = 0.0f;
                for (int f = 0; f < dim; ++f) {
                    da += di[f] * hv[f];
                    dhj[f] += head_scale * a * di[f];
                }
                da *= head_scale;
                dalpha[size_t(e - begin) * H + size_t(k)] = da;
                inner += a * da;
            }
            // Softmax + LeakyReLU backward, then split to s_i and t_j.
            for (EdgeOffset e = begin; e < end; ++e) {
                NodeId j = cols[size_t(e)];
                float a = alpha[size_t(e) * H + size_t(k)];
                float da = dalpha[size_t(e - begin) * H + size_t(k)];
                float de = a * (da - inner);
                float dp = de * leakyGrad(pre[size_t(e) * H + size_t(k)]);
                ds(i, k) += dp;
                dt(j, k) += dp;
            }
        }
    }

    // Attention-vector gradients and their contribution to dh.
    for (NodeId v = 0; v < n; ++v) {
        for (int k = 0; k < heads; ++k) {
            const float *hv = h.row(v) + int64_t(k) * dim;
            float *dhv = dh.row(v) + int64_t(k) * dim;
            float dsv = ds(v, k), dtv = dt(v, k);
            for (int f = 0; f < dim; ++f) {
                ga_src(k, f) += dsv * hv[f];
                ga_dst(k, f) += dtv * hv[f];
                dhv[f] += dsv * a_src(k, f) + dtv * a_dst(k, f);
            }
        }
    }
    return dh;
}

/** ConcatSelf: columns [begin, begin + cols) of @p d. */
Matrix
columnsOf(const Matrix &d, int64_t begin, int64_t cols)
{
    Matrix out(d.rows(), cols);
    for (int64_t r = 0; r < d.rows(); ++r)
        std::memcpy(out.row(r), d.row(r) + begin,
                    size_t(cols) * sizeof(float));
    return out;
}

} // namespace

void
backwardPass(const ForwardRecipe &m,
             const std::vector<const CsrMatrix *> &transposes,
             const ForwardTape &tape, const Matrix &dlogits,
             const std::vector<Matrix *> &grads)
{
    GCOD_ASSERT(grads.size() == m.weights.size(),
                "one gradient per recipe weight");
    GCOD_ASSERT(tape.slots.size() == m.layers.size(),
                "backward needs a tape of the same recipe");
    Matrix dout = dlogits;
    for (size_t l = m.layers.size(); l-- > 0;) {
        const LayerGraph &g = m.layers[l];
        // A slot takes a gradient when a weight lies upstream of it.
        std::vector<bool> live(size_t(g.numSlots), false);
        live[0] = l > 0;
        for (const OpStep &op : g.ops)
            live[size_t(op.out)] =
                op.kind == OpKind::GEMM ||
                op.kind == OpKind::AttentionScore || live[size_t(op.in)] ||
                (op.aux >= 0 && live[size_t(op.aux)]);
        std::vector<Matrix> d(size_t(g.numSlots));
        std::vector<bool> has(size_t(g.numSlots), false);
        auto give = [&](int s, Matrix c) {
            if (!live[size_t(s)])
                return;
            if (has[size_t(s)]) {
                d[size_t(s)] += c;
            } else {
                d[size_t(s)] = std::move(c);
                has[size_t(s)] = true;
            }
        };
        give(g.ops.back().out, std::move(dout));

        for (size_t oi = g.ops.size(); oi-- > 0;) {
            const OpStep &op = g.ops[oi];
            if (!has[size_t(op.out)])
                continue;
            Matrix dy = std::move(d[size_t(op.out)]);
            const Matrix &in = tape.at(m, l, op.in);
            switch (op.kind) {
            case OpKind::SpMM:
                if (live[size_t(op.in)])
                    give(op.in, spmm(*transposes[size_t(op.opIndex)], dy));
                break;
            case OpKind::GEMM:
                *grads[size_t(op.weight)] = matmulTransposedA(in, dy);
                if (live[size_t(op.in)])
                    give(op.in, matmulTransposedB(
                                    dy, *m.weights[size_t(op.weight)]));
                break;
            case OpKind::AttentionScore:
                give(op.in,
                     attentionBackward(*m.operators[size_t(op.opIndex)], in,
                                       *m.weights[size_t(op.aSrc)],
                                       *m.weights[size_t(op.aDst)], op, dy,
                                       *grads[size_t(op.aSrc)],
                                       *grads[size_t(op.aDst)]));
                break;
            case OpKind::MaxAgg:
                if (live[size_t(op.in)])
                    give(op.in, maxAggBackward(
                                    *m.operators[size_t(op.opIndex)], in,
                                    dy));
                break;
            case OpKind::Activation:
                give(op.in, op.act == ActKind::Relu ? reluBackward(dy, in)
                                                    : eluBackward(dy, in));
                break;
            case OpKind::Residual: {
                Matrix daux = dy;
                if (op.scale != 1.0f)
                    daux *= op.scale;
                give(op.aux, std::move(daux));
                give(op.in, std::move(dy));
                break;
            }
            case OpKind::ConcatSelf: {
                const int64_t self = tape.at(m, l, op.aux).cols();
                give(op.aux, columnsOf(dy, 0, self));
                give(op.in, columnsOf(dy, self, dy.cols() - self));
                break;
            }
            case OpKind::Readout:
                give(op.in, std::move(dy));
                break;
            }
        }
        dout = std::move(d[0]);
    }
}

TrainingGraph::TrainingGraph(GnnModel &model, const GraphContext &ctx)
    : model_(model), ctx_(ctx), full_(forwardRecipeFor(model, ctx))
{
    useOperators(full_);
}

void
TrainingGraph::useOperators(ForwardRecipe recipe)
{
    recipe_ = std::move(recipe);
    ownedTransposes_.clear();
    ownedTransposes_.reserve(recipe_.operators.size());
    transposes_.clear();
    for (const CsrMatrix *op : recipe_.operators) {
        if (op == &ctx_.normalized() || op == &ctx_.binary()) {
            transposes_.push_back(op);
        } else {
            ownedTransposes_.push_back(op->transpose());
            transposes_.push_back(&ownedTransposes_.back());
        }
    }
}

void
TrainingGraph::resample(Rng &rng)
{
    if (model_.fanouts.empty())
        return;
    GCOD_ASSERT(model_.fanouts.size() == full_.layers.size(),
                "one neighbor fanout per layer");
    sampled_.clear();
    for (int k : model_.fanouts)
        sampled_.push_back(sampleMeanOperator(ctx_.graph(), k, rng));
    useOperators(onLayerOperators(full_, sampled_));
}

Matrix
TrainingGraph::forward(const Matrix &x)
{
    return tapedForward(recipe_, x, tape_);
}

void
TrainingGraph::backward(const Matrix &dlogits)
{
    backwardPass(recipe_, transposes_, tape_, dlogits, model_.gradients());
}

Matrix
TrainingGraph::step(const Dataset &ds, Rng &rng, double *loss)
{
    resample(rng);
    Matrix logits = forward(ds.features);
    Matrix probs = softmaxRows(logits);
    if (loss != nullptr)
        *loss = crossEntropy(probs, ds.labels, ds.trainMask);
    backward(softmaxCrossEntropyBackward(probs, ds.labels, ds.trainMask));
    return logits;
}

} // namespace gcod
