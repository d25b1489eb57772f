/**
 * @file
 * Scalar reference kernels the fast host kernels must match byte for
 * byte: std::lround quantizers, int64-accumulated integer GEMM and
 * mixed SpMM, the i-k-j fp32 GEMM, and the if-chain Max aggregation.
 * tests/test_quant_kernels.cpp and bench/kernel_throughput (check=1)
 * compare against them.
 */
#ifndef GCOD_TESTS_KERNEL_ORACLES_HPP
#define GCOD_TESTS_KERNEL_ORACLES_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/qops.hpp"

namespace gcod::oracle {

/** Same shape and the same float bytes, element for element. */
inline bool
sameBytes(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/** clamp(lround(v), -qmax, qmax): the quantizers' rounding rule. */
inline int32_t
oracleCode(float v, int32_t qmax)
{
    return std::clamp(int32_t(std::lround(v)), -qmax, qmax);
}

/** chooseQuantParams by a serial std::max chain over |x|. */
inline QuantParams
oracleParams(const Matrix &x, int bits)
{
    float peak = 0.0f;
    for (float v : x.data())
        peak = std::max(peak, std::fabs(v));
    QuantParams qp;
    qp.bits = bits;
    qp.scale = peak > 0.0f ? peak / float((1 << (bits - 1)) - 1) : 1.0f;
    return qp;
}

/** Codes of @p x at @p qp, element by element with std::lround. */
inline std::vector<int32_t>
oraclePack(const Matrix &x, const QuantParams &qp)
{
    int32_t hi = (1 << (qp.bits - 1)) - 1;
    float inv = 1.0f / qp.scale;
    std::vector<int32_t> q;
    for (float v : x.data())
        q.push_back(oracleCode(v * inv, hi));
    return q;
}

/** Every code of @p m, widened, row-major. */
inline std::vector<int32_t>
codesOf(const QuantizedMatrix &m)
{
    std::vector<int32_t> q;
    for (int64_t r = 0; r < m.rows(); ++r)
        for (int64_t c = 0; c < m.cols(); ++c)
            q.push_back(m.at(r, c));
    return q;
}

/** rowQuantize's serial max / lround loop. */
inline RowQuantizedMatrix
oracleRowQuantize(const Matrix &x, const std::vector<uint8_t> &branch_of,
                  int lo_bits, int hi_bits)
{
    RowQuantizedMatrix m;
    m.branchOf = &branch_of;
    m.rows = x.rows();
    m.cols = x.cols();
    m.codes.resize(size_t(m.rows * m.cols));
    m.rowScale.resize(size_t(m.rows));
    for (int64_t r = 0; r < m.rows; ++r) {
        int bits = branch_of[size_t(r)] == 0 ? lo_bits : hi_bits;
        int32_t qmax = (1 << (bits - 1)) - 1;
        const float *src = x.row(r);
        float peak = 0.0f;
        for (int64_t j = 0; j < m.cols; ++j)
            peak = std::max(peak, std::fabs(src[j]));
        float scale = peak > 0.0f ? peak / float(qmax) : 1.0f;
        m.rowScale[size_t(r)] = scale;
        float inv = 1.0f / scale;
        for (int64_t j = 0; j < m.cols; ++j)
            m.codes[size_t(r * m.cols + j)] =
                int16_t(oracleCode(src[j] * inv, qmax));
    }
    return m;
}

/** qmatmulRowScaled with one int64 accumulator row, zero codes skipped. */
inline Matrix
oracleQmatmulRowScaled(const RowQuantizedMatrix &x,
                       const QuantizedMatrix &w_lo,
                       const QuantizedMatrix &w_hi)
{
    Matrix z(x.rows, w_lo.cols(), 0.0f);
    for (int64_t r = 0; r < x.rows; ++r) {
        const QuantizedMatrix &w =
            (*x.branchOf)[size_t(r)] != 0 ? w_hi : w_lo;
        std::vector<int64_t> acc(size_t(w.cols()), 0);
        for (int64_t k = 0; k < x.cols; ++k) {
            int32_t xv = x.row(r)[k];
            if (xv == 0)
                continue;
            for (int64_t j = 0; j < w.cols(); ++j)
                acc[size_t(j)] += int64_t(xv) * int64_t(w.at(k, j));
        }
        double s = double(x.rowScale[size_t(r)]) * double(w.params().scale);
        for (int64_t j = 0; j < w.cols(); ++j)
            z(r, j) = float(s * double(acc[size_t(j)]));
    }
    return z;
}

/** qspmmMixed with one int64 accumulator row per branch. */
inline Matrix
oracleQspmmMixed(const QuantizedCsr &a, const MixedQuantizedMatrix &x)
{
    const CsrMatrix &p = *a.pattern;
    Matrix y(p.rows(), x.cols(), 0.0f);
    for (NodeId r = 0; r < p.rows(); ++r) {
        std::vector<int64_t> lo(size_t(x.cols()), 0), hi(size_t(x.cols()), 0);
        for (EdgeOffset k = p.indptr()[size_t(r)];
             k < p.indptr()[size_t(r) + 1]; ++k) {
            int32_t av = a.values[size_t(k)];
            if (av == 0)
                continue;
            NodeId c = p.indices()[size_t(k)];
            int64_t li = (*x.localIndex)[size_t(c)];
            bool prot = (*x.branchOf)[size_t(c)] != 0;
            const QuantizedMatrix &m = prot ? x.hi : x.lo;
            std::vector<int64_t> &acc = prot ? hi : lo;
            for (int64_t j = 0; j < x.cols(); ++j)
                acc[size_t(j)] += int64_t(av) * int64_t(m.at(li, j));
        }
        double slo = double(a.qp.scale) * double(x.lo.params().scale);
        double shi = double(a.qp.scale) * double(x.hi.params().scale);
        for (int64_t j = 0; j < x.cols(); ++j)
            y(r, j) = float(slo * double(lo[size_t(j)]) +
                            shi * double(hi[size_t(j)]));
    }
    return y;
}

/** The i-k-j fp32 GEMM: ascending k, zero activations skipped. */
inline Matrix
oracleMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols(), 0.0f);
    for (int64_t i = 0; i < a.rows(); ++i)
        for (int64_t k = 0; k < a.cols(); ++k) {
            float av = a(i, k);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < b.cols(); ++j)
                c(i, j) += av * b(k, j);
        }
    return c;
}

/**
 * Max aggregation as one branch per element: row r starts from x's row
 * r, and each neighbor, in entry order, replaces an element it exceeds
 * (a NaN never does, and none replaces a NaN; -0 and +0 tie).
 */
inline Matrix
oracleMaxAggregate(const CsrMatrix &adj, const Matrix &x)
{
    Matrix out(adj.rows(), x.cols());
    for (NodeId r = 0; r < adj.rows(); ++r) {
        for (int64_t c = 0; c < x.cols(); ++c)
            out(r, c) = x(r, c);
        for (EdgeOffset k = adj.indptr()[size_t(r)];
             k < adj.indptr()[size_t(r) + 1]; ++k) {
            NodeId j = adj.indices()[size_t(k)];
            for (int64_t c = 0; c < x.cols(); ++c)
                if (x(j, c) > out(r, c))
                    out(r, c) = x(j, c);
        }
    }
    return out;
}

} // namespace gcod::oracle

#endif // GCOD_TESTS_KERNEL_ORACLES_HPP
