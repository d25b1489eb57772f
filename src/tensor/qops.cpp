#include "tensor/qops.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/parallel.hpp"

namespace gcod {

namespace {

/** Rows per range so each range carries enough integer MACs (ops.cpp). */
int64_t
rowGrain(int64_t macsPerRow)
{
    constexpr int64_t kMinParallelWork = 1 << 15;
    return std::max<int64_t>(
        1, kMinParallelWork / std::max<int64_t>(1, macsPerRow));
}

/** acc[0..n) += v * xrow[0..n), exact in int64. */
template <typename T>
inline void
axpyInt(int64_t *acc, int32_t v, const T *xrow, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        acc[j] += int64_t(v) * int64_t(xrow[j]);
}

/** Dispatch on packed width: acc += v * row r of @p m. */
inline void
axpyRow(int64_t *acc, int32_t v, const QuantizedMatrix &m, int64_t r)
{
    if (m.narrow())
        axpyInt(acc, v, m.row8(r), m.cols());
    else
        axpyInt(acc, v, m.row16(r), m.cols());
}

/** One mixed SpMM output row into y.row(r); acc buffers are scratch. */
inline void
qspmmMixedRow(const QuantizedCsr &a, const MixedQuantizedMatrix &x,
              NodeId r, std::vector<int64_t> &acc_lo,
              std::vector<int64_t> &acc_hi, Matrix &y)
{
    const CsrMatrix &p = *a.pattern;
    const std::vector<uint8_t> &branch = *x.branchOf;
    const std::vector<int32_t> &local = *x.localIndex;
    int64_t n = y.cols();
    std::fill(acc_lo.begin(), acc_lo.end(), 0);
    std::fill(acc_hi.begin(), acc_hi.end(), 0);
    for (EdgeOffset k = p.indptr()[size_t(r)];
         k < p.indptr()[size_t(r) + 1]; ++k) {
        int32_t av = a.values[size_t(k)];
        if (av == 0)
            continue;
        NodeId c = p.indices()[size_t(k)];
        int64_t idx = local[size_t(c)];
        if (branch[size_t(c)] == 0)
            axpyRow(acc_lo.data(), av, x.lo, idx);
        else
            axpyRow(acc_hi.data(), av, x.hi, idx);
    }
    double sa = a.qp.scale;
    double slo = sa * double(x.lo.params().scale);
    double shi = sa * double(x.hi.params().scale);
    float *yrow = y.row(r);
    for (int64_t j = 0; j < n; ++j)
        yrow[j] = float(slo * double(acc_lo[size_t(j)]) +
                        shi * double(acc_hi[size_t(j)]));
}

/** One mixed GEMM output row into z.row(r). */
inline void
qmatmulMixedRow(const MixedQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                const QuantizedMatrix &w_hi, NodeId r,
                std::vector<int64_t> &acc, Matrix &z)
{
    bool prot = (*x.branchOf)[size_t(r)] != 0;
    const QuantizedMatrix &xq = prot ? x.hi : x.lo;
    const QuantizedMatrix &w = prot ? w_hi : w_lo;
    int64_t idx = (*x.localIndex)[size_t(r)];
    int64_t kdim = xq.cols(), n = w.cols();
    std::fill(acc.begin(), acc.end(), 0);
    for (int64_t k = 0; k < kdim; ++k) {
        int32_t xv = xq.at(idx, k);
        if (xv == 0)
            continue;
        axpyRow(acc.data(), xv, w, k);
    }
    double s = double(xq.params().scale) * double(w.params().scale);
    float *zrow = z.row(r);
    for (int64_t j = 0; j < n; ++j)
        zrow[j] = float(s * double(acc[size_t(j)]));
}

/** One row-scaled GEMM output row into z.row(r). */
inline void
qmatmulRowScaledRow(const RowQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                    const QuantizedMatrix &w_hi, NodeId r,
                    std::vector<int64_t> &acc, Matrix &z)
{
    bool prot = (*x.branchOf)[size_t(r)] != 0;
    const QuantizedMatrix &w = prot ? w_hi : w_lo;
    const int16_t *xrow = x.row(r);
    int64_t kdim = x.cols, n = w.cols();
    std::fill(acc.begin(), acc.end(), 0);
    for (int64_t k = 0; k < kdim; ++k) {
        int32_t xv = xrow[k];
        if (xv == 0)
            continue;
        axpyRow(acc.data(), xv, w, k);
    }
    double s = double(x.rowScale[size_t(r)]) * double(w.params().scale);
    float *zrow = z.row(r);
    for (int64_t j = 0; j < n; ++j)
        zrow[j] = float(s * double(acc[size_t(j)]));
}

/** @p x's rows split into (dense, protected) branch matrices. */
std::pair<Matrix, Matrix>
splitBranches(const Matrix &x, const std::vector<uint8_t> &branch_of,
              const std::vector<int32_t> &local_index)
{
    GCOD_ASSERT(branch_of.size() == size_t(x.rows()) &&
                    local_index.size() == branch_of.size(),
                "branch assignment must match rows");
    int64_t nhi = 0;
    for (uint8_t b : branch_of)
        nhi += b != 0;
    Matrix lo(x.rows() - nhi, x.cols());
    Matrix hi(nhi, x.cols());
    for (int64_t r = 0; r < x.rows(); ++r) {
        Matrix &dst = branch_of[size_t(r)] == 0 ? lo : hi;
        std::copy(x.row(r), x.row(r) + x.cols(),
                  dst.row(local_index[size_t(r)]));
    }
    return {std::move(lo), std::move(hi)};
}

} // namespace

Matrix
qmatmul(const QuantizedMatrix &a, const QuantizedMatrix &b)
{
    GCOD_ASSERT(a.cols() == b.rows(), "qmatmul shape mismatch");
    ParallelZone zone("qmatmul");
    Matrix c(a.rows(), b.cols(), 0.0f);
    parallelFor(
        0, a.rows(),
        [&](const Range &range, size_t) {
            std::vector<int64_t> acc(size_t(b.cols()));
            for (int64_t i = range.begin; i < range.end; ++i) {
                std::fill(acc.begin(), acc.end(), 0);
                for (int64_t k = 0; k < a.cols(); ++k) {
                    int32_t av = a.at(i, k);
                    if (av == 0)
                        continue;
                    axpyRow(acc.data(), av, b, k);
                }
                double s = double(a.params().scale) *
                           double(b.params().scale);
                float *crow = c.row(i);
                for (int64_t j = 0; j < b.cols(); ++j)
                    crow[j] = float(s * double(acc[size_t(j)]));
            }
        },
        rowGrain(a.cols() * b.cols()));
    return c;
}

Matrix
qspmm(const QuantizedCsr &a, const QuantizedMatrix &x)
{
    const CsrMatrix &p = *a.pattern;
    GCOD_ASSERT(int64_t(p.cols()) == x.rows(), "qspmm shape mismatch");
    ParallelZone zone("qspmm");
    Matrix y(p.rows(), x.cols(), 0.0f);
    parallelForWeighted(
        p.indptr(),
        [&](const Range &range, size_t) {
            std::vector<int64_t> acc(size_t(x.cols()));
            for (NodeId r = NodeId(range.begin); r < NodeId(range.end);
                 ++r) {
                std::fill(acc.begin(), acc.end(), 0);
                for (EdgeOffset k = p.indptr()[size_t(r)];
                     k < p.indptr()[size_t(r) + 1]; ++k) {
                    int32_t av = a.values[size_t(k)];
                    if (av == 0)
                        continue;
                    axpyRow(acc.data(), av, x, p.indices()[size_t(k)]);
                }
                double s =
                    double(a.qp.scale) * double(x.params().scale);
                float *yrow = y.row(r);
                for (int64_t j = 0; j < x.cols(); ++j)
                    yrow[j] = float(s * double(acc[size_t(j)]));
            }
        },
        rowGrain(x.cols()));
    return y;
}

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
    auto [lo, hi] = splitBranches(x, branch_of, local_index);
    MixedQuantizedMatrix m;
    m.branchOf = &branch_of;
    m.localIndex = &local_index;
    m.lo = QuantizedMatrix(lo, lo_bits);
    m.hi = QuantizedMatrix(hi, hi_bits);
    return m;
}

MixedQuantizedMatrix
mixedQuantize(const Matrix &x, const std::vector<uint8_t> &branch_of,
              const std::vector<int32_t> &local_index, const QuantParams &lo,
              const QuantParams &hi)
{
    auto [xlo, xhi] = splitBranches(x, branch_of, local_index);
    MixedQuantizedMatrix m;
    m.branchOf = &branch_of;
    m.localIndex = &local_index;
    m.lo = QuantizedMatrix(xlo, lo);
    m.hi = QuantizedMatrix(xhi, hi);
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
            std::vector<int64_t> acc_lo(size_t(x.cols()));
            std::vector<int64_t> acc_hi(size_t(x.cols()));
            for (NodeId r = NodeId(range.begin); r < NodeId(range.end);
                 ++r)
                qspmmMixedRow(a, x, r, acc_lo, acc_hi, y);
        },
        rowGrain(x.cols()));
    return y;
}

void
qspmmMixedRows(const QuantizedCsr &a, const MixedQuantizedMatrix &x,
               const std::vector<NodeId> &rows, Matrix &y)
{
    GCOD_ASSERT(y.rows() == int64_t(a.pattern->rows()) &&
                    y.cols() == x.cols(),
                "qspmmMixedRows output shape mismatch");
    std::vector<int64_t> acc_lo(size_t(x.cols()));
    std::vector<int64_t> acc_hi(size_t(x.cols()));
    for (NodeId r : rows)
        qspmmMixedRow(a, x, r, acc_lo, acc_hi, y);
}

Matrix
qmatmulMixed(const MixedQuantizedMatrix &x, const QuantizedMatrix &w_lo,
             const QuantizedMatrix &w_hi)
{
    GCOD_ASSERT(x.cols() == w_lo.rows() && x.cols() == w_hi.rows() &&
                    w_lo.cols() == w_hi.cols(),
                "qmatmulMixed shape mismatch");
    ParallelZone zone("qmatmulMixed");
    Matrix z(x.rows(), w_lo.cols(), 0.0f);
    parallelFor(
        0, x.rows(),
        [&](const Range &range, size_t) {
            std::vector<int64_t> acc(size_t(w_lo.cols()));
            for (int64_t r = range.begin; r < range.end; ++r)
                qmatmulMixedRow(x, w_lo, w_hi, NodeId(r), acc, z);
        },
        rowGrain(x.cols() * w_lo.cols()));
    return z;
}

void
qmatmulMixedRows(const MixedQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                 const QuantizedMatrix &w_hi,
                 const std::vector<NodeId> &rows, Matrix &z)
{
    GCOD_ASSERT(z.rows() == x.rows() && z.cols() == w_lo.cols(),
                "qmatmulMixedRows output shape mismatch");
    std::vector<int64_t> acc(size_t(w_lo.cols()));
    for (NodeId r : rows)
        qmatmulMixedRow(x, w_lo, w_hi, r, acc, z);
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
    m.codes.resize(size_t(m.rows * m.cols));
    m.rowScale.resize(size_t(m.rows));
    parallelFor(
        0, m.rows,
        [&](const Range &range, size_t) {
            for (int64_t r = range.begin; r < range.end; ++r) {
                int bits = branch_of[size_t(r)] == 0 ? lo_bits : hi_bits;
                int32_t qmax = (1 << (bits - 1)) - 1;
                const float *src = x.row(r);
                float peak = 0.0f;
                for (int64_t j = 0; j < m.cols; ++j)
                    peak = std::max(peak, std::fabs(src[j]));
                float scale = peak > 0.0f ? peak / float(qmax) : 1.0f;
                m.rowScale[size_t(r)] = scale;
                float inv = 1.0f / scale;
                int16_t *dst = m.codes.data() + r * m.cols;
                for (int64_t j = 0; j < m.cols; ++j)
                    dst[j] = int16_t(std::clamp(
                        int32_t(std::lround(src[j] * inv)), -qmax, qmax));
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
    parallelFor(
        0, x.rows,
        [&](const Range &range, size_t) {
            std::vector<int64_t> acc(size_t(w_lo.cols()));
            for (int64_t r = range.begin; r < range.end; ++r)
                qmatmulRowScaledRow(x, w_lo, w_hi, NodeId(r), acc, z);
        },
        rowGrain(x.cols * w_lo.cols()));
    return z;
}

void
qmatmulRowScaledRows(const RowQuantizedMatrix &x, const QuantizedMatrix &w_lo,
                     const QuantizedMatrix &w_hi,
                     const std::vector<NodeId> &rows, Matrix &z)
{
    GCOD_ASSERT(z.rows() == x.rows && z.cols() == w_lo.cols(),
                "qmatmulRowScaledRows output shape mismatch");
    std::vector<int64_t> acc(size_t(w_lo.cols()));
    for (NodeId r : rows)
        qmatmulRowScaledRow(x, w_lo, w_hi, r, acc, z);
}

} // namespace gcod
