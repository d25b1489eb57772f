#include "tensor/qops.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "sim/parallel.hpp"

namespace gcod {

namespace {

constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr int64_t kInt16Max = std::numeric_limits<int16_t>::max();

/** Output columns one register tile holds. */
constexpr int64_t kTile = 16;

using I8x16 = int8_t __attribute__((vector_size(16)));
using I16x8 = int16_t __attribute__((vector_size(16)));
using I32x4 = int32_t __attribute__((vector_size(16)));

/**
 * int8 codes [0, 8) and [8, 16) at @p p as two int16 vectors, sign
 * extended: each byte paired with itself, so an arithmetic shift of the
 * int16 view drops the copy.
 */
inline void
load16(const int8_t *p, I16x8 &lo, I16x8 &hi)
{
    I8x16 v;
    std::memcpy(&v, p, sizeof v);
    lo = (I16x8)__builtin_shufflevector(v, v, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4,
                                        5, 5, 6, 6, 7, 7) >>
         8;
    hi = (I16x8)__builtin_shufflevector(v, v, 8, 8, 9, 9, 10, 10, 11, 11,
                                        12, 12, 13, 13, 14, 14, 15, 15) >>
         8;
}

inline I16x8
splat16x8(int16_t u)
{
    return I16x8{u, u, u, u, u, u, u, u};
}

/**
 * Lanes 0-3 / 4-7 of @p v sign-extended to int32: each lane paired with
 * itself, so an arithmetic shift of the int32 view drops the copy.
 */
inline I32x4
widenLow(I16x8 v)
{
    return (I32x4)__builtin_shufflevector(v, v, 0, 0, 1, 1, 2, 2, 3, 3) >> 16;
}

inline I32x4
widenHigh(I16x8 v)
{
    return (I32x4)__builtin_shufflevector(v, v, 4, 4, 5, 5, 6, 6, 7, 7) >> 16;
}

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

/** Dispatch on packed width: acc += v * row r of @p m. */
template <typename Acc>
inline void
axpyRow(Acc *acc, int16_t v, const QuantizedMatrix &m, int64_t r)
{
    if (m.narrow())
        axpyInt(acc, v, m.row8(r), m.cols());
    else
        axpyInt(acc, v, m.row16(r), m.cols());
}

/**
 * Whether a GEMM branch's dot products run the int32 pair path: two
 * products summed per int16 lane, the sums added into a register tile
 * of int32. That is exact when W is packed at <= 8 bits,
 * 2·qmax_x·qmax_w <= INT16_MAX and K·qmax_x·qmax_w <= INT32_MAX (every
 * 8-bit row up to K = 133 144). Otherwise the row accumulates in int64,
 * exact for any K at <= 16 bits. Both give the same integer sums.
 */
bool
pairExact(int64_t k, int32_t qmax_x, const QuantizedMatrix &w)
{
    const int64_t term = int64_t(qmax_x) * int64_t(quantMax(w.params().bits));
    return w.narrow() && 2 * term <= kInt16Max && k * term <= kInt32Max;
}

/** Per-range scratch of the integer row kernels. */
struct RowScratch
{
    std::vector<int32_t> idx;  ///< nonzero positions
    std::vector<int16_t> val;  ///< their codes
    std::vector<int64_t> acc64;
};

/** Gather the nonzero codes of xrow[0..k) into s.idx / s.val. */
int64_t
gatherNonzeros(const int16_t *xrow, int64_t k, RowScratch &s)
{
    s.idx.resize(size_t(k));
    s.val.resize(size_t(k));
    int64_t n = 0;
    for (int64_t i = 0; i < k; ++i) {
        s.idx[size_t(n)] = int32_t(i);
        s.val[size_t(n)] = xrow[i];
        n += xrow[i] != 0;
    }
    return n;
}

/**
 * Columns [j0, j0 + kTile) of Σ_i val[i] · w[idx[i]][j] in int32 (the
 * pairExact bounds hold): two products summed per int16 lane, the sums
 * widened into four int32x4 register accumulators. @p w is row 0 of
 * the codes; @p ldw their row stride.
 */
inline void
pairTile(const int32_t *idx, const int16_t *val, int64_t nnz,
         const int8_t *w, int64_t ldw, int64_t j0, int32_t *out)
{
    I32x4 acc[4] = {};
    auto add = [&acc](I16x8 p0, I16x8 p1) {
        acc[0] += widenLow(p0);
        acc[1] += widenHigh(p0);
        acc[2] += widenLow(p1);
        acc[3] += widenHigh(p1);
    };
    I16x8 a0, a1, b0, b1;
    int64_t i = 0;
    for (; i + 1 < nnz; i += 2) {
        load16(w + idx[i] * ldw + j0, a0, a1);
        load16(w + idx[i + 1] * ldw + j0, b0, b1);
        const I16x8 u = splat16x8(val[i]), v = splat16x8(val[i + 1]);
        add(a0 * u + b0 * v, a1 * u + b1 * v);
    }
    if (i < nnz) {
        load16(w + idx[i] * ldw + j0, a0, a1);
        const I16x8 u = splat16x8(val[i]);
        add(a0 * u, a1 * u);
    }
    std::memcpy(out, acc, sizeof acc);
}

/** int64 dot products of the gathered row against W, into acc. */
void
sparseRowTimes(const RowScratch &s, int64_t nnz, const QuantizedMatrix &w,
               int64_t *acc)
{
    std::fill(acc, acc + w.cols(), int64_t(0));
    for (int64_t i = 0; i < nnz; ++i)
        axpyRow(acc, s.val[size_t(i)], w, s.idx[size_t(i)]);
}

/** zrow[j] = float(scale · acc[j]) — the one rounding of the row. */
template <typename Acc>
inline void
scaleRow(const Acc *acc, int64_t n, double scale, float *zrow)
{
    for (int64_t j = 0; j < n; ++j)
        zrow[j] = float(scale * double(acc[j]));
}

/** The pair-path row: full register tiles, then the ragged last tile. */
void
pairRow(const RowScratch &s, int64_t nnz, const int8_t *w, int64_t n,
        double scale, float *zrow)
{
    int32_t tile[kTile];
    int64_t j0 = 0;
    for (; j0 + kTile <= n; j0 += kTile) {
        pairTile(s.idx.data(), s.val.data(), nnz, w, n, j0, tile);
        scaleRow(tile, kTile, scale, zrow + j0);
    }
    if (j0 < n) {
        // The same int32 sums, column by column.
        std::fill(tile, tile + (n - j0), 0);
        for (int64_t i = 0; i < nnz; ++i)
            axpyInt(tile, s.val[size_t(i)],
                    w + int64_t(s.idx[size_t(i)]) * n + j0, n - j0);
        scaleRow(tile, n - j0, scale, zrow + j0);
    }
}

/** One row-scaled GEMM output row into z.row(r). */
void
qmatmulRowScaledRow(const RowQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                    const QuantizedMatrix &w_hi, const bool pair[2],
                    NodeId r, RowScratch &s, Matrix &z)
{
    const int b = (*x.branchOf)[size_t(r)] != 0 ? 1 : 0;
    const QuantizedMatrix &w = b ? w_hi : w_lo;
    const int64_t n = w.cols();
    const int64_t nnz = gatherNonzeros(x.row(r), x.cols, s);
    const double scale = double(x.rowScale[size_t(r)]) *
                         double(w.params().scale);
    float *zrow = z.row(r);
    if (pair[b]) {
        pairRow(s, nnz, w.row8(0), n, scale, zrow);
        return;
    }
    s.acc64.resize(size_t(n));
    sparseRowTimes(s, nnz, w, s.acc64.data());
    scaleRow(s.acc64.data(), n, scale, zrow);
}

/** Whether each branch of a GEMM with @p x's rows takes the pair path. */
std::array<bool, 2>
pairPaths(const RowQuantizedMatrix &x, const QuantizedMatrix &w_lo,
          const QuantizedMatrix &w_hi)
{
    return {pairExact(x.cols, x.qmax[0], w_lo),
            pairExact(x.cols, x.qmax[1], w_hi)};
}

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
qmatmulRowScaled(const RowQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                 const QuantizedMatrix &w_hi)
{
    GCOD_ASSERT(x.cols == w_lo.rows() && x.cols == w_hi.rows() &&
                    w_lo.cols() == w_hi.cols(),
                "qmatmulRowScaled shape mismatch");
    ParallelZone zone("qmatmulRowScaled");
    Matrix z(x.rows, w_lo.cols(), 0.0f);
    const std::array<bool, 2> pair = pairPaths(x, w_lo, w_hi);
    parallelFor(
        0, x.rows,
        [&](const Range &range, size_t) {
            RowScratch s;
            for (int64_t r = range.begin; r < range.end; ++r)
                qmatmulRowScaledRow(x, w_lo, w_hi, pair.data(), NodeId(r),
                                    s, z);
        },
        rowGrain(x.cols * w_lo.cols()));
    return z;
}

} // namespace gcod
