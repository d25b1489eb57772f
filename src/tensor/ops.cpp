#include "ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/parallel.hpp"
#include "tensor/gemm_isa.hpp"

#ifdef GCOD_GEMM_AVX2
#include <immintrin.h>
#endif

namespace gcod {

namespace {

/**
 * Column-tile width of the GEMM bodies and matmulTransposedB: a K x
 * kColTile stripe of the right-hand operand stays cache-resident while
 * every row of the local range streams against it.
 */
constexpr int64_t kColTile = 128;

/** Output columns one register tile keeps across k. */
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
 * The baseline body: rows [r0, r1) of c = a · b, each row a 1 x 16
 * register tile over its nonzero activations. One K x kColTile stripe
 * of B at a time sweeps every row of the block, so B is read once per
 * block.
 */
void
matmulBaseline(const Matrix &a, const Matrix &b, int64_t r0, int64_t r1,
               Matrix &c)
{
    thread_local std::vector<int32_t> nz;
    nz.resize(size_t(a.cols()));
    for (int64_t jb = 0; jb < b.cols(); jb += kColTile) {
        const int64_t jend = std::min(jb + kColTile, b.cols());
        for (int64_t i = r0; i < r1; ++i) {
            const int64_t nnz = nonzeroPositions(a.row(i), a.cols(),
                                                 nz.data());
            for (int64_t j0 = jb; j0 < jend; j0 += kRegTile)
                matmulTile(a.row(i), nz.data(), nnz, b, j0, c.row(i));
        }
    }
}

#ifdef GCOD_GEMM_AVX2
#define GCOD_AVX2 __attribute__((target("avx2")))

/** Rows one AVX2 register tile holds: each B load feeds all of them. */
constexpr int kRowTile = 6;

/** Eight floats; unlike __m256, not may_alias, so tiles stay in registers. */
using F32x8 = float __attribute__((vector_size(32)));

/**
 * R rows x 16 columns of c = a · b in two ymm accumulators per row,
 * k dense from 0: per k, two loads of B's row feed every row of the
 * tile, each a separate multiply and add. @p width < 16 masks the
 * loads and stores of the ragged last tile.
 */
template <int R, bool Full>
GCOD_AVX2 inline void
matmulTileAvx2(const float *a, int64_t lda, const float *b, int64_t ldb,
               int64_t k, int64_t width, float *c, int64_t ldc)
{
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(int(width)),
                                          lane);
    const __m256i m1 = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(int(width) - 8), lane);
    F32x8 acc0[R] = {}, acc1[R] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
        const float *bk = b + kk * ldb;
        F32x8 b0, b1;
        if (Full) {
            std::memcpy(&b0, bk, sizeof b0);
            std::memcpy(&b1, bk + 8, sizeof b1);
        } else {
            b0 = F32x8(_mm256_maskload_ps(bk, m0));
            b1 = F32x8(_mm256_maskload_ps(bk + 8, m1));
        }
        for (int r = 0; r < R; ++r) {
            const float av = a[r * lda + kk];
            acc0[r] += av * b0;
            acc1[r] += av * b1;
        }
    }
    for (int r = 0; r < R; ++r) {
        if (Full) {
            std::memcpy(c + r * ldc, &acc0[r], sizeof acc0[r]);
            std::memcpy(c + r * ldc + 8, &acc1[r], sizeof acc1[r]);
        } else {
            _mm256_maskstore_ps(c + r * ldc, m0, __m256(acc0[r]));
            _mm256_maskstore_ps(c + r * ldc + 8, m1, __m256(acc1[r]));
        }
    }
}

/** Rows [i, i + R), columns [jb, jend) of c = a · b. */
template <int R>
GCOD_AVX2 void
matmulRowsAvx2(const Matrix &a, const Matrix &b, int64_t i, int64_t jb,
               int64_t jend, Matrix &c)
{
    for (int64_t j0 = jb; j0 < jend; j0 += kRegTile) {
        const int64_t width = std::min(kRegTile, jend - j0);
        if (width == kRegTile)
            matmulTileAvx2<R, true>(a.row(i), a.cols(), b.row(0) + j0,
                                    b.cols(), a.cols(), width,
                                    c.row(i) + j0, c.cols());
        else
            matmulTileAvx2<R, false>(a.row(i), a.cols(), b.row(0) + j0,
                                     b.cols(), a.cols(), width,
                                     c.row(i) + j0, c.cols());
    }
}

/** The last @p n < R rows from @p i: one narrower tile. */
template <int R>
GCOD_AVX2 void
matmulTailAvx2(int64_t n, const Matrix &a, const Matrix &b, int64_t i,
               int64_t jb, int64_t jend, Matrix &c)
{
    if constexpr (R > 0) {
        if (n == R)
            matmulRowsAvx2<R>(a, b, i, jb, jend, c);
        else
            matmulTailAvx2<R - 1>(n, a, b, i, jb, jend, c);
    }
}

/**
 * The AVX2 body: rows [r0, r1) of c = a · b in kRowTile x 16 register
 * tiles, k dense, each K x kColTile stripe of B swept by every row
 * tile of the block. Dense k adds a zero activation's product too;
 * with finite B that is ±0, which leaves an accumulator that started
 * at +0 unchanged, so the bytes are the baseline body's.
 */
GCOD_AVX2 void
matmulAvx2(const Matrix &a, const Matrix &b, int64_t r0, int64_t r1,
           Matrix &c)
{
    for (int64_t jb = 0; jb < b.cols(); jb += kColTile) {
        const int64_t jend = std::min(jb + kColTile, b.cols());
        int64_t i = r0;
        for (; i + kRowTile <= r1; i += kRowTile)
            matmulRowsAvx2<kRowTile>(a, b, i, jb, jend, c);
        matmulTailAvx2<kRowTile - 1>(r1 - i, a, b, i, jb, jend, c);
    }
}

/** Whether no entry of @p b is inf or NaN (all exponent bits set). */
bool
allFinite(const Matrix &b)
{
    const float *v = b.data().data();
    int32_t special = 0;
    for (size_t i = 0; i < b.data().size(); ++i) {
        int32_t bits;
        std::memcpy(&bits, v + i, sizeof bits);
        special |= (bits & 0x7f800000) == 0x7f800000;
    }
    return special == 0;
}
#endif

/** Rows [r0, r1) of c = a · b through one body. */
using MatmulBody = void (*)(const Matrix &a, const Matrix &b, int64_t r0,
                            int64_t r1, Matrix &c);

/**
 * @p isa's body for a product with right operand @p b. The AVX2 tiles
 * run k dense, which keeps the bytes only for finite B (0 · inf is
 * NaN), so a B holding inf or NaN takes the baseline body: one check
 * of K · N entries against M · K · N multiply-adds.
 */
MatmulBody
matmulBody(GemmIsa isa, [[maybe_unused]] const Matrix &b)
{
#ifdef GCOD_GEMM_AVX2
    GCOD_ASSERT(isa == GemmIsa::Baseline || hostGemmIsa() == GemmIsa::Avx2,
                "the AVX2 GEMM body needs an AVX2 CPU");
    if (isa == GemmIsa::Avx2 && allFinite(b))
        return matmulAvx2;
#else
    GCOD_ASSERT(isa == GemmIsa::Baseline,
                "the AVX2 GEMM body is x86-64 only");
#endif
    return matmulBaseline;
}

} // namespace

GemmIsa
hostGemmIsa()
{
#ifdef GCOD_GEMM_AVX2
    static const GemmIsa isa = __builtin_cpu_supports("avx2")
                                   ? GemmIsa::Avx2
                                   : GemmIsa::Baseline;
    return isa;
#else
    return GemmIsa::Baseline;
#endif
}

const char *
gemmIsaName(GemmIsa isa)
{
    return isa == GemmIsa::Avx2 ? "avx2" : "baseline";
}

Matrix
matmulOn(GemmIsa isa, const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
    ParallelZone zone("matmul");
    Matrix c(a.rows(), b.cols(), 0.0f);
    // Parallel over disjoint row ranges of C, each one block through
    // the body; every element's sequence of float operations is the
    // scalar i-k-j kernel's, so the bytes hold for any thread count.
    const MatmulBody body = matmulBody(isa, b);
    parallelFor(
        0, a.rows(),
        [&](const Range &r, size_t) { body(a, b, r.begin, r.end, c); },
        rowGrain(a.cols() * b.cols()));
    return c;
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    return matmulOn(hostGemmIsa(), a, b);
}

Matrix
matmulSerial(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.cols() == b.rows(), "matmul shape mismatch");
    Matrix c(a.rows(), b.cols(), 0.0f);
    matmulBody(hostGemmIsa(), b)(a, b, 0, a.rows(), c);
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
