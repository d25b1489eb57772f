#include "ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/parallel.hpp"

namespace gcod {

namespace {

/**
 * Column-tile width for matmul and matmulTransposedB: a K x kColTile
 * stripe of the right-hand operand stays cache-resident while every row
 * of the local range streams against it.
 */
constexpr int64_t kColTile = 128;

/** Output columns matmulRowInto keeps in registers across k. */
constexpr int64_t kRegTile = 16;

/** Positions of the nonzero a[0..k), ascending, into nz; the count. */
int64_t
nonzeroPositions(const float *a, int64_t k, int32_t *nz)
{
    int64_t n = 0;
    for (int64_t i = 0; i < k; ++i) {
        nz[n] = int32_t(i);
        n += a[i] != 0.0f;
    }
    return n;
}

/**
 * Columns [j0, j0 + kRegTile) of one matmul row (fewer at the ragged
 * end): each output starts at 0.0f and adds a[k] * b(k, j) over the
 * listed k in ascending order, held in registers across k.
 */
void
matmulTile(const float *a, const int32_t *nz, int64_t nnz, const Matrix &b,
           int64_t j0, float *out)
{
    using F32x4 = float __attribute__((vector_size(16)));
    const int64_t width = std::min(kRegTile, b.cols() - j0);
    if (width == kRegTile) {
        F32x4 acc[kRegTile / 4] = {};
        for (int64_t i = 0; i < nnz; ++i) {
            const float av = a[nz[i]];
            const F32x4 avv = {av, av, av, av};
            const float *brow = b.row(nz[i]) + j0;
            for (int64_t t = 0; t < kRegTile / 4; ++t) {
                F32x4 bv;
                std::memcpy(&bv, brow + 4 * t, sizeof bv);
                acc[t] += avv * bv;
            }
        }
        std::memcpy(out + j0, acc, sizeof acc);
        return;
    }
    float acc[kRegTile] = {};
    for (int64_t i = 0; i < nnz; ++i) {
        const float av = a[nz[i]];
        const float *brow = b.row(nz[i]) + j0;
        for (int64_t j = 0; j < width; ++j)
            acc[j] += av * brow[j];
    }
    std::copy(acc, acc + width, out + j0);
}

/**
 * Columns [jb, jend) of one matmul row: the nonzero positions of a into
 * @p nz (b.rows() entries of scratch), then each register tile.
 */
void
matmulRowColumns(const float *a, const Matrix &b, int64_t jb, int64_t jend,
                 int32_t *nz, float *out)
{
    const int64_t nnz = nonzeroPositions(a, b.rows(), nz);
    for (int64_t j0 = jb; j0 < jend; j0 += kRegTile)
        matmulTile(a, nz, nnz, b, j0, out);
}

} // namespace

void
matmulRowInto(const float *a, const Matrix &b, float *out)
{
    thread_local std::vector<int32_t> nz;
    nz.resize(size_t(b.rows()));
    matmulRowColumns(a, b, 0, b.cols(), nz.data(), out);
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
    ParallelZone zone("matmul");
    Matrix c(a.rows(), b.cols(), 0.0f);
    // Parallel over disjoint rows of C; within a range, one K x kColTile
    // stripe of B at a time sweeps every row, so the stripe stays
    // cache-hot and B is read once per range. Every element is
    // matmulRowInto's tile: each c(i, j) starts at 0 and adds
    // a(i, k) * b(k, j) over the nonzero a(i, k) in ascending k — the
    // scalar i-k-j kernel's exact sequence of float operations — so the
    // result is bit-identical for any thread count.
    parallelFor(
        0, a.rows(),
        [&](const Range &r, size_t) {
            std::vector<int32_t> nz(size_t(a.cols()));
            for (int64_t jb = 0; jb < b.cols(); jb += kColTile) {
                const int64_t jend = std::min(jb + kColTile, b.cols());
                for (int64_t i = r.begin; i < r.end; ++i)
                    matmulRowColumns(a.row(i), b, jb, jend, nz.data(),
                                     c.row(i));
            }
        },
        rowGrain(a.cols() * b.cols()));
    return c;
}

Matrix
matmulTransposedA(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.rows() == b.rows(), "matmulTransposedA shape mismatch");
    ParallelZone zone("matmulTransposedA");
    Matrix c(a.cols(), b.cols(), 0.0f);
    // Parallel over disjoint row blocks of C (= column blocks of A); the
    // k sweep is innermost-outer exactly as in the scalar kernel, so each
    // c(i, j) accumulates in ascending-k order and the block's C rows
    // stay cache-resident across the whole sweep.
    parallelFor(
        0, a.cols(),
        [&](const Range &r, size_t) {
            for (int64_t k = 0; k < a.rows(); ++k) {
                const float *arow = a.row(k);
                const float *brow = b.row(k);
                for (int64_t i = r.begin; i < r.end; ++i) {
                    float av = arow[i];
                    if (av == 0.0f)
                        continue;
                    float *crow = c.row(i);
                    for (int64_t j = 0; j < b.cols(); ++j)
                        crow[j] += av * brow[j];
                }
            }
        },
        rowGrain(a.rows() * b.cols()));
    return c;
}

Matrix
matmulTransposedB(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.cols() == b.cols(), "matmulTransposedB shape mismatch");
    ParallelZone zone("matmulTransposedB");
    Matrix c(a.rows(), b.rows(), 0.0f);
    // Parallel over row blocks of C; j tiled so a block of B rows is
    // reused across every row of the local range. Each c(i, j) is one
    // ascending-k dot product, identical to the scalar kernel.
    parallelFor(
        0, a.rows(),
        [&](const Range &r, size_t) {
            for (int64_t jb = 0; jb < b.rows(); jb += kColTile) {
                int64_t jend = std::min(jb + kColTile, b.rows());
                for (int64_t i = r.begin; i < r.end; ++i) {
                    const float *arow = a.row(i);
                    float *crow = c.row(i);
                    for (int64_t j = jb; j < jend; ++j) {
                        const float *brow = b.row(j);
                        float acc = 0.0f;
                        for (int64_t k = 0; k < a.cols(); ++k)
                            acc += arow[k] * brow[k];
                        crow[j] += acc;
                    }
                }
            }
        },
        rowGrain(a.cols() * b.rows()));
    return c;
}

Matrix
spmmRowWise(const CsrMatrix &a, const Matrix &x)
{
    GCOD_ASSERT(int64_t(a.cols()) == x.rows(), "spmm shape mismatch");
    ParallelZone zone("spmmRowWise");
    Matrix y(a.rows(), x.cols(), 0.0f);
    // Row ranges are cut by cumulative nnz (the indptr array), not row
    // count: on power-law graphs equal row counts give wildly unequal
    // work while equal nnz shares stay balanced — the same imbalance
    // the paper's accelerators rebalance in hardware. Each output row is
    // written by exactly one range, so results are thread-count
    // invariant.
    parallelForWeighted(
        a.indptr(),
        [&](const Range &r, size_t) {
            for (NodeId row = NodeId(r.begin); row < NodeId(r.end); ++row) {
                float *yrow = y.row(row);
                a.forEachInRow(row, [&](NodeId c, float v) {
                    const float *xrow = x.row(c);
                    for (int64_t j = 0; j < x.cols(); ++j)
                        yrow[j] += v * xrow[j];
                });
            }
        },
        rowGrain(x.cols()));
    return y;
}

Matrix
spmm(const CsrMatrix &a, const Matrix &x)
{
    return spmmRowWise(a, x);
}

Matrix
relu(const Matrix &x)
{
    Matrix y = x;
    ParallelZone zone("relu");
    float *d = y.data().data();
    parallelFor(
        0, y.size(),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                d[i] = std::max(d[i], 0.0f);
        },
        kMinParallelWork);
    return y;
}

Matrix
reluBackward(const Matrix &grad, const Matrix &x)
{
    GCOD_ASSERT(grad.sameShape(x), "reluBackward shape mismatch");
    Matrix g = grad;
    ParallelZone zone("reluBackward");
    float *gd = g.data().data();
    const float *xd = x.data().data();
    parallelFor(
        0, g.size(),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                if (xd[i] <= 0.0f)
                    gd[i] = 0.0f;
        },
        kMinParallelWork);
    return g;
}

Matrix
leakyRelu(const Matrix &x, float alpha)
{
    Matrix y = x;
    ParallelZone zone("leakyRelu");
    float *d = y.data().data();
    parallelFor(
        0, y.size(),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                if (d[i] < 0.0f)
                    d[i] *= alpha;
        },
        kMinParallelWork);
    return y;
}

Matrix
softmaxRows(const Matrix &x)
{
    Matrix y(x.rows(), x.cols());
    ParallelZone zone("softmaxRows");
    parallelFor(
        0, x.rows(),
        [&](const Range &range, size_t) {
            for (int64_t r = range.begin; r < range.end; ++r) {
                const float *in = x.row(r);
                float *out = y.row(r);
                float peak = in[0];
                for (int64_t c = 1; c < x.cols(); ++c)
                    peak = std::max(peak, in[c]);
                float sum = 0.0f;
                for (int64_t c = 0; c < x.cols(); ++c) {
                    out[c] = std::exp(in[c] - peak);
                    sum += out[c];
                }
                for (int64_t c = 0; c < x.cols(); ++c)
                    out[c] /= sum;
            }
        },
        rowGrain(4 * x.cols()));
    return y;
}

namespace {

bool
rowSelected(const std::vector<bool> &mask, int64_t r)
{
    return mask.empty() || mask[size_t(r)];
}

} // namespace

double
crossEntropy(const Matrix &probs, const std::vector<int> &labels,
             const std::vector<bool> &mask)
{
    GCOD_ASSERT(labels.size() == size_t(probs.rows()),
                "crossEntropy label count mismatch");
    double loss = 0.0;
    int64_t counted = 0;
    for (int64_t r = 0; r < probs.rows(); ++r) {
        if (!rowSelected(mask, r))
            continue;
        float p = probs(r, labels[size_t(r)]);
        loss += -std::log(std::max(p, 1e-12f));
        ++counted;
    }
    return counted ? loss / double(counted) : 0.0;
}

Matrix
softmaxCrossEntropyBackward(const Matrix &probs,
                            const std::vector<int> &labels,
                            const std::vector<bool> &mask)
{
    Matrix grad(probs.rows(), probs.cols(), 0.0f);
    int64_t counted = 0;
    for (int64_t r = 0; r < probs.rows(); ++r)
        if (rowSelected(mask, r))
            ++counted;
    if (!counted)
        return grad;
    float inv = 1.0f / float(counted);
    ParallelZone zone("softmaxCrossEntropyBackward");
    parallelFor(
        0, probs.rows(),
        [&](const Range &range, size_t) {
            for (int64_t r = range.begin; r < range.end; ++r) {
                if (!rowSelected(mask, r))
                    continue;
                for (int64_t c = 0; c < probs.cols(); ++c)
                    grad(r, c) = probs(r, c) * inv;
                grad(r, labels[size_t(r)]) -= inv;
            }
        },
        rowGrain(probs.cols()));
    return grad;
}

double
accuracy(const Matrix &logits, const std::vector<int> &labels,
         const std::vector<bool> &mask)
{
    GCOD_ASSERT(labels.size() == size_t(logits.rows()),
                "accuracy label count mismatch");
    int64_t correct = 0, counted = 0;
    for (int64_t r = 0; r < logits.rows(); ++r) {
        if (!rowSelected(mask, r))
            continue;
        const float *row = logits.row(r);
        int64_t best = 0;
        for (int64_t c = 1; c < logits.cols(); ++c)
            if (row[c] > row[best])
                best = c;
        if (best == labels[size_t(r)])
            ++correct;
        ++counted;
    }
    return counted ? double(correct) / double(counted) : 0.0;
}

Matrix
hconcat(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.rows() == b.rows(), "hconcat row mismatch");
    Matrix c(a.rows(), a.cols() + b.cols());
    for (int64_t r = 0; r < a.rows(); ++r) {
        std::copy(a.row(r), a.row(r) + a.cols(), c.row(r));
        std::copy(b.row(r), b.row(r) + b.cols(), c.row(r) + a.cols());
    }
    return c;
}

Matrix
meanOf(const std::vector<Matrix> &ms)
{
    GCOD_ASSERT(!ms.empty(), "meanOf needs at least one matrix");
    Matrix acc = ms[0];
    for (size_t i = 1; i < ms.size(); ++i)
        acc += ms[i];
    acc *= 1.0f / float(ms.size());
    return acc;
}

} // namespace gcod
