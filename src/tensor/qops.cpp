#include "tensor/qops.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <emmintrin.h>
#include <limits>

#include "sim/parallel.hpp"
#include "tensor/gemm_isa.hpp"

#ifdef GCOD_GEMM_AVX2
#include <immintrin.h>
#endif

namespace gcod {

namespace {

constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();

/**
 * acc[0..n) += v * xrow[0..n), exact in Acc. Codes are at most 16 bits,
 * so with Acc = int32 the products are int16 x int16 widening
 * multiplies, which vectorize.
 */
template <typename Acc, typename T>
inline void
axpyInt(Acc *acc, int16_t v, const T *xrow, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        acc[j] += Acc(v) * Acc(xrow[j]);
}

/** zrow[j] = float(scale · acc[j]) — the one rounding of the row. */
template <typename Acc>
inline void
scaleRow(const Acc *acc, int64_t n, double scale, float *zrow)
{
    for (int64_t j = 0; j < n; ++j)
        zrow[j] = float(scale * double(acc[j]));
}

/**
 * Whether a GEMM branch's dot products fit int32 accumulators: every
 * partial sum of K terms is at most K · qmax_x · qmax_w, so K · qmax_x
 * · qmax_w <= INT32_MAX suffices (every 8-bit row up to K = 133 144).
 * Otherwise the branch accumulates in int64. A pair sum alone is at
 * most 2 · 32767², below 2^31, so it is exact either way.
 */
bool
fitsInt32(int64_t k, int32_t qmax_x, const QuantizedMatrix &w)
{
    return k * int64_t(qmax_x) * int64_t(quantMax(w.params().bits)) <=
           kInt32Max;
}

/** The SSE2 operations of the k-pair GEMM body. */
namespace sse2 {

using VI = __m128i;
constexpr int kLanes = 4;
constexpr int kRows32 = 2;
constexpr int kRows64 = 1;

inline VI zero() { return _mm_setzero_si128(); }
inline VI splat(int32_t v) { return _mm_set1_epi32(v); }
inline VI
load(const int32_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const VI *>(p));
}
inline void
store(void *p, VI v)
{
    _mm_storeu_si128(static_cast<VI *>(p), v);
}
inline VI madd(VI a, VI b) { return _mm_madd_epi16(a, b); }
inline VI add32(VI a, VI b) { return _mm_add_epi32(a, b); }
inline VI add64(VI a, VI b) { return _mm_add_epi64(a, b); }
inline void
widen(VI v, VI &lo, VI &hi)
{
    const VI sign = _mm_srai_epi32(v, 31);
    lo = _mm_unpacklo_epi32(v, sign);
    hi = _mm_unpackhi_epi32(v, sign);
}

#include "tensor/kpair_gemm.inl"

} // namespace sse2

#ifdef GCOD_GEMM_AVX2
#pragma GCC push_options
#pragma GCC target("avx2")

/** The AVX2 operations of the k-pair GEMM body. */
namespace avx2 {

using VI = __m256i;
constexpr int kLanes = 8;
constexpr int kRows32 = 4;
constexpr int kRows64 = 2;

inline VI zero() { return _mm256_setzero_si256(); }
inline VI splat(int32_t v) { return _mm256_set1_epi32(v); }
inline VI
load(const int32_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const VI *>(p));
}
inline void
store(void *p, VI v)
{
    _mm256_storeu_si256(static_cast<VI *>(p), v);
}
inline VI madd(VI a, VI b) { return _mm256_madd_epi16(a, b); }
inline VI add32(VI a, VI b) { return _mm256_add_epi32(a, b); }
inline VI add64(VI a, VI b) { return _mm256_add_epi64(a, b); }
inline void
widen(VI v, VI &lo, VI &hi)
{
    lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
    hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
}

#include "tensor/kpair_gemm.inl"

} // namespace avx2

#pragma GCC pop_options
#endif

/** Per-range scratch of the mixed SpMM row kernel. */
struct SpmmScratch
{
    std::vector<int16_t> a[2];    ///< nonzero operator codes per branch
    std::vector<int32_t> rows[2]; ///< their in-branch rows of x
    std::vector<int32_t> acc32[2];
    std::vector<int64_t> acc64[2];
};

/**
 * Branch @p b's share of a mixed SpMM row, Σ_i a[i] · x[rows[i]][0..n).
 * The row's operator codes bound every partial sum by Σ|a| · qmax, so
 * when that fits int32 the branch accumulates into s.acc32[b] and this
 * returns true; otherwise into s.acc64[b].
 */
template <typename X>
bool
spmmBranch(SpmmScratch &s, int b, int32_t qmax, const X *x, int64_t n)
{
    const std::vector<int16_t> &a = s.a[b];
    const std::vector<int32_t> &rows = s.rows[b];
    int64_t abs_sum = 0;
    for (int16_t v : a)
        abs_sum += v < 0 ? -int64_t(v) : int64_t(v);
    auto accumulate = [&](auto &acc) {
        acc.assign(size_t(n), 0);
        for (size_t i = 0; i < a.size(); ++i)
            axpyInt(acc.data(), a[i], x + int64_t(rows[i]) * n, n);
    };
    if (abs_sum * int64_t(qmax) <= kInt32Max) {
        accumulate(s.acc32[b]);
        return true;
    }
    accumulate(s.acc64[b]);
    return false;
}

/** spmmBranch over branch matrix @p m at its packed width. */
bool
spmmBranchOf(SpmmScratch &s, int b, const QuantizedMatrix &m, int64_t n)
{
    const int32_t qmax = quantMax(m.params().bits);
    if (s.a[b].empty() || m.narrow())
        return spmmBranch(s, b, qmax, m.row8(0), n);
    return spmmBranch(s, b, qmax, m.row16(0), n);
}

/** yrow[j] = float(slo · lo[j] + shi · hi[j]): the row's one rounding. */
template <typename Lo, typename Hi>
inline void
combineBranches(const Lo *lo, const Hi *hi, int64_t n, double slo,
                double shi, float *yrow)
{
    for (int64_t j = 0; j < n; ++j)
        yrow[j] = float(slo * double(lo[j]) + shi * double(hi[j]));
}

/** One mixed SpMM output row into y.row(r). */
inline void
qspmmMixedRow(const QuantizedCsr &a, const MixedQuantizedMatrix &x,
              NodeId r, SpmmScratch &s, Matrix &y)
{
    const CsrMatrix &p = *a.pattern;
    const std::vector<uint8_t> &branch = *x.branchOf;
    const std::vector<int32_t> &local = *x.localIndex;
    const int64_t n = y.cols();
    for (int b = 0; b < 2; ++b) {
        s.a[b].clear();
        s.rows[b].clear();
    }
    for (EdgeOffset k = p.indptr()[size_t(r)];
         k < p.indptr()[size_t(r) + 1]; ++k) {
        int16_t av = a.values[size_t(k)];
        if (av == 0)
            continue;
        NodeId c = p.indices()[size_t(k)];
        int b = branch[size_t(c)] != 0 ? 1 : 0;
        s.a[b].push_back(av);
        s.rows[b].push_back(local[size_t(c)]);
    }
    const bool lo32 = spmmBranchOf(s, 0, x.lo, n);
    const bool hi32 = spmmBranchOf(s, 1, x.hi, n);
    const double sa = a.qp.scale;
    const double slo = sa * double(x.lo.params().scale);
    const double shi = sa * double(x.hi.params().scale);
    float *yrow = y.row(r);
    if (lo32 && hi32)
        combineBranches(s.acc32[0].data(), s.acc32[1].data(), n, slo, shi,
                        yrow);
    else if (lo32)
        combineBranches(s.acc32[0].data(), s.acc64[1].data(), n, slo, shi,
                        yrow);
    else if (hi32)
        combineBranches(s.acc64[0].data(), s.acc32[1].data(), n, slo, shi,
                        yrow);
    else
        combineBranches(s.acc64[0].data(), s.acc64[1].data(), n, slo, shi,
                        yrow);
}

/**
 * Each branch's rows of a global matrix, in local order:
 * rows[b][local_index[r]] = r for every r with branch_of[r] == b.
 */
std::array<std::vector<int32_t>, 2>
branchRows(const std::vector<uint8_t> &branch_of,
           const std::vector<int32_t> &local_index)
{
    GCOD_ASSERT(local_index.size() == branch_of.size(),
                "branch assignment must match rows");
    std::array<std::vector<int32_t>, 2> rows;
    for (uint8_t b : branch_of)
        rows[b != 0 ? 1 : 0].push_back(0);
    for (size_t r = 0; r < branch_of.size(); ++r) {
        std::vector<int32_t> &dst = rows[branch_of[r] != 0 ? 1 : 0];
        const int32_t li = local_index[r];
        GCOD_ASSERT(li >= 0 && size_t(li) < dst.size(),
                    "local index out of its branch");
        dst[size_t(li)] = int32_t(r);
    }
    return rows;
}

} // namespace

std::vector<int32_t>
branchLocalIndex(const std::vector<uint8_t> &branch_of)
{
    std::vector<int32_t> local(branch_of.size());
    int32_t nlo = 0, nhi = 0;
    for (size_t i = 0; i < branch_of.size(); ++i)
        local[i] = branch_of[i] == 0 ? nlo++ : nhi++;
    return local;
}

MixedQuantizedMatrix
mixedQuantize(const Matrix &x, const std::vector<uint8_t> &branch_of,
              const std::vector<int32_t> &local_index, int lo_bits,
              int hi_bits)
{
    GCOD_ASSERT(branch_of.size() == size_t(x.rows()),
                "branch assignment must match rows");
    auto rows = branchRows(branch_of, local_index);
    MixedQuantizedMatrix m;
    m.branchOf = &branch_of;
    m.localIndex = &local_index;
    m.lo = QuantizedMatrix(
        x, rows[0], symmetricQuantParams(maxAbsRows(x, rows[0]), lo_bits));
    m.hi = QuantizedMatrix(
        x, rows[1], symmetricQuantParams(maxAbsRows(x, rows[1]), hi_bits));
    return m;
}

MixedQuantizedMatrix
mixedQuantize(const Matrix &x, const std::vector<uint8_t> &branch_of,
              const std::vector<int32_t> &local_index, const QuantParams &lo,
              const QuantParams &hi)
{
    GCOD_ASSERT(branch_of.size() == size_t(x.rows()),
                "branch assignment must match rows");
    auto rows = branchRows(branch_of, local_index);
    MixedQuantizedMatrix m;
    m.branchOf = &branch_of;
    m.localIndex = &local_index;
    m.lo = QuantizedMatrix(x, rows[0], lo);
    m.hi = QuantizedMatrix(x, rows[1], hi);
    return m;
}

Matrix
qspmmMixed(const QuantizedCsr &a, const MixedQuantizedMatrix &x)
{
    const CsrMatrix &p = *a.pattern;
    GCOD_ASSERT(int64_t(p.cols()) == x.rows(), "qspmmMixed shape mismatch");
    ParallelZone zone("qspmmMixed");
    Matrix y(p.rows(), x.cols(), 0.0f);
    parallelForWeighted(
        p.indptr(),
        [&](const Range &range, size_t) {
            SpmmScratch s;
            for (NodeId r = NodeId(range.begin); r < NodeId(range.end);
                 ++r)
                qspmmMixedRow(a, x, r, s, y);
        },
        rowGrain(x.cols()));
    return y;
}

RowQuantizedMatrix
rowQuantize(const Matrix &x, const std::vector<uint8_t> &branch_of,
            int lo_bits, int hi_bits)
{
    GCOD_ASSERT(branch_of.size() == size_t(x.rows()),
                "branch assignment must match rows");
    GCOD_ASSERT(lo_bits >= 2 && lo_bits <= 16 && hi_bits >= 2 &&
                    hi_bits <= 16,
                "per-row quantization supports 2..16 bits");
    ParallelZone zone("rowQuantize");
    RowQuantizedMatrix m;
    m.branchOf = &branch_of;
    m.rows = x.rows();
    m.cols = x.cols();
    m.qmax = {quantMax(lo_bits), quantMax(hi_bits)};
    m.codes.resize(size_t(m.rows * m.cols));
    m.rowScale.resize(size_t(m.rows));
    parallelFor(
        0, m.rows,
        [&](const Range &range, size_t) {
            for (int64_t r = range.begin; r < range.end; ++r) {
                int32_t qmax = m.qmax[branch_of[size_t(r)] == 0 ? 0 : 1];
                const float *src = x.row(r);
                float peak = maxAbs(src, m.cols);
                float scale = peak > 0.0f ? peak / float(qmax) : 1.0f;
                m.rowScale[size_t(r)] = scale;
                quantizeRow(src, m.cols, 1.0f / scale, qmax,
                            m.codes.data() + r * m.cols);
            }
        },
        rowGrain(m.cols));
    return m;
}

Matrix
qmatmulRowScaledOn(GemmIsa isa, const RowQuantizedMatrix &x,
                   const QuantizedMatrix &w_lo, const QuantizedMatrix &w_hi)
{
    GCOD_ASSERT(x.cols == w_lo.rows() && x.cols == w_hi.rows() &&
                    w_lo.cols() == w_hi.cols(),
                "qmatmulRowScaled shape mismatch");
    GCOD_ASSERT(w_lo.hasPairs() && w_hi.hasPairs(),
                "qmatmulRowScaled reads the weights' k-pair packs: call "
                "QuantizedMatrix::packPairs once per weight");
    auto body = sse2::qmatmulRows;
#ifdef GCOD_GEMM_AVX2
    if (isa == GemmIsa::Avx2) {
        GCOD_ASSERT(hostGemmIsa() == GemmIsa::Avx2,
                    "the AVX2 GEMM body needs an AVX2 CPU");
        body = avx2::qmatmulRows;
    }
#else
    GCOD_ASSERT(isa == GemmIsa::Baseline,
                "the AVX2 GEMM body is x86-64 only");
#endif
    ParallelZone zone("qmatmulRowScaled");
    Matrix z(x.rows, w_lo.cols(), 0.0f);
    const std::array<bool, 2> int32 = {fitsInt32(x.cols, x.qmax[0], w_lo),
                                       fitsInt32(x.cols, x.qmax[1], w_hi)};
    parallelFor(
        0, x.rows,
        [&](const Range &range, size_t) {
            body(x, w_lo, w_hi, int32, range.begin, range.end, z);
        },
        rowGrain(x.cols * w_lo.cols()));
    return z;
}

Matrix
qmatmulRowScaled(const RowQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                 const QuantizedMatrix &w_hi)
{
    return qmatmulRowScaledOn(hostGemmIsa(), x, w_lo, w_hi);
}

} // namespace gcod
