/**
 * @file
 * Integer quantization support for the GCoD (8-bit) variant and the
 * QAT / Degree-Quant compression baselines (paper Tab. VII, Tab. VI).
 *
 * Symmetric per-tensor quantization: q = clamp(round(x / s), -(2^{b-1}-1),
 * 2^{b-1}-1), dequant x' = q * s, with s chosen from the max-abs range.
 * The clamp is symmetric (GCoD-style): the two's-complement most-negative
 * code is never emitted, so +peak and -peak map to codes of equal
 * magnitude even when the params came from another tensor (shared-scale
 * callers like the sharded executor). Fake-quantization
 * (quantize-dequantize in float) is what QAT inserts in the forward pass
 * while keeping float gradients (straight-through).
 */
#ifndef GCOD_TENSOR_QUANT_HPP
#define GCOD_TENSOR_QUANT_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/sparse.hpp"
#include "tensor/matrix.hpp"

namespace gcod {

/** Quantization parameters for one tensor. */
struct QuantParams
{
    float scale = 1.0f;
    int bits = 8;
};

/** Largest code magnitude at @p bits: 2^{bits-1} - 1. */
inline int32_t
quantMax(int bits)
{
    return (1 << (bits - 1)) - 1;
}

/**
 * The code of @p v, a value already divided by its scale: round half
 * away from zero (std::lround's rule), then clamp to [-qmax, qmax].
 * It clamps, truncates, and adds one step when the dropped fraction is
 * at least one half. For |v| <= qmax <= 2^15 the fraction v - trunc(v)
 * is exact in float, so the code equals clamp(lround(v), -qmax, qmax)
 * bit for bit without a libm call, and a loop over a row vectorizes
 * (the NaN test is on the bit pattern, which keeps the loop
 * branch-free). NaN codes as 0; values beyond the range saturate.
 */
inline int32_t
roundToCode(float v, int32_t qmax)
{
    const float q = float(qmax);
    const float c = std::min(q, std::max(-q, v));
    const int32_t t = int32_t(c);
    const float frac = c - float(t);
    const int32_t code =
        t + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0);
    int32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return code & -int32_t((bits & 0x7fffffff) <= 0x7f800000);
}

/** dst[j] = roundToCode(src[j] * inv, qmax) for j in [0, n). */
template <typename Code>
inline void
quantizeRow(const float *src, int64_t n, float inv, int32_t qmax, Code *dst)
{
    for (int64_t j = 0; j < n; ++j)
        dst[j] = Code(roundToCode(src[j] * inv, qmax));
}

/**
 * max |v[j]| over [0, n); 0 when empty, and NaN never wins — the value
 * of the serial std::max(peak, std::fabs(v[j])) chain. With the sign
 * bit cleared, integer order of the bit patterns is float order and
 * NaN patterns sit above +inf's, so the max runs as a vectorizable
 * integer reduction. A max does not depend on the order it is taken
 * in, so any row or range split of it returns the same float.
 */
inline float
maxAbs(const float *v, int64_t n)
{
    constexpr int32_t kInfBits = 0x7f800000;
    int32_t peak = 0;
    for (int64_t j = 0; j < n; ++j) {
        int32_t bits;
        std::memcpy(&bits, v + j, sizeof bits);
        bits &= 0x7fffffff;
        peak = std::max(peak, bits > kInfBits ? 0 : bits);
    }
    float out;
    std::memcpy(&out, &peak, sizeof out);
    return out;
}

/** Choose a symmetric scale covering max|x| at the given bit width. */
QuantParams chooseQuantParams(const Matrix &x, int bits);

/**
 * max |x| over rows @p rows of @p x (0 when empty), computed on the
 * pool. The same float as a serial max over a copy of those rows.
 */
float maxAbsRows(const Matrix &x, const std::vector<int32_t> &rows);

/**
 * The symmetric params chooseQuantParams picks for a tensor whose
 * max|x| is @p peak (scale 1 when @p peak is 0). Row-subset callers
 * that know a tensor's peak without holding all of it use this to get
 * the same scale bit for bit.
 */
QuantParams symmetricQuantParams(float peak, int bits);

/** Quantize to integers (stored widened to int32 for convenience). */
std::vector<int32_t> quantize(const Matrix &x, const QuantParams &qp);

/** Dequantize back to float with the same params. */
Matrix dequantize(const std::vector<int32_t> &q, int64_t rows, int64_t cols,
                  const QuantParams &qp);

/**
 * Fake-quantize: quantize-dequantize round trip in float. This is the
 * operation QAT inserts during training and what GCoD (8-bit) applies to
 * weights and activations at inference.
 */
Matrix fakeQuantize(const Matrix &x, int bits);

/** Max |x - fakeQuantize(x)| — the quantization error bound. */
double quantizationError(const Matrix &x, int bits);

/**
 * Degree-Quant style protective masking: rows whose node degree is above
 * the (1 - protect_ratio) quantile keep full precision, the rest are
 * fake-quantized. High-degree nodes accumulate many messages and are the
 * ones quantization hurts most [Tailor et al.].
 */
Matrix degreeAwareFakeQuantize(const Matrix &x,
                               const std::vector<int32_t> &degrees, int bits,
                               double protect_ratio);

/**
 * The degree threshold degreeAwareFakeQuantize protects at: nodes with
 * degree >= the (1 - protect_ratio) quantile stay at higher precision.
 * Exposed so the integer execution path (nn/quant_exec) splits nodes into
 * branches by exactly the same rule.
 */
int32_t protectionThreshold(const std::vector<int32_t> &degrees,
                            double protect_ratio);

/**
 * Packed integer matrix: row-major quantized codes stored at the
 * narrowest standard width that fits the configured bits (int8 for
 * bits <= 8, int16 up to 16) plus the per-matrix QuantParams mapping
 * codes back to floats. Unlike fakeQuantize — which only *models*
 * quantization in float — a QuantizedMatrix actually shrinks the bytes
 * held and moved; it is the operand format of the integer kernels in
 * tensor/qops.hpp.
 */
class QuantizedMatrix
{
  public:
    QuantizedMatrix() = default;
    /** Quantize @p x at @p bits with a fresh symmetric per-matrix scale. */
    QuantizedMatrix(const Matrix &x, int bits);
    /** Quantize @p x with explicit params (shared-scale callers). */
    QuantizedMatrix(const Matrix &x, const QuantParams &qp);
    /**
     * Quantize rows @p rows of @p x, in that order, with explicit
     * params: row i of the pack holds the codes of x.row(rows[i]).
     * Codes match packing a copy of those rows.
     */
    QuantizedMatrix(const Matrix &x, const std::vector<int32_t> &rows,
                    const QuantParams &qp);

    /**
     * Reassemble from previously packed codes (the artifact store's
     * deserialization path). Exactly one of @p q8 / @p q16 must be
     * populated, matching the width @p qp.bits selects, with
     * rows * cols codes inside the symmetric ±(2^{bits-1} - 1) range;
     * fatal otherwise.
     */
    static QuantizedMatrix fromCodes(int64_t rows, int64_t cols,
                                     const QuantParams &qp,
                                     std::vector<int8_t> q8,
                                     std::vector<int16_t> q16);

    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    const QuantParams &params() const { return qp_; }
    /** True when codes are stored as int8 (bits <= 8). */
    bool narrow() const { return qp_.bits <= 8; }

    const int8_t *row8(int64_t r) const { return q8_.data() + r * cols_; }
    const int16_t *row16(int64_t r) const
    {
        return q16_.data() + r * cols_;
    }

    /** Single code, widened. */
    int32_t
    at(int64_t r, int64_t c) const
    {
        return narrow() ? q8_[size_t(r * cols_ + c)]
                        : q16_[size_t(r * cols_ + c)];
    }

    /** Map every code back to float (q * scale). */
    Matrix toMatrix() const;

    /** Packed code bytes — the memory/wire footprint of the payload. */
    double payloadBytes() const;

    /** Raw packed codes (serialization); the inactive width is empty. */
    const std::vector<int8_t> &codes8() const { return q8_; }
    const std::vector<int16_t> &codes16() const { return q16_; }

    /**
     * Build the k-pair pack the integer GEMM reads (qmatmulRowScaled,
     * which requires it): pair row p holds, per column j, one int32
     * whose low int16 is the code at (2p, j) and whose high int16 is
     * the code at (2p + 1, j), 0 past rows(). A pair row is cols()
     * rounded up to kPairColumns int32 long, zero-padded, so the
     * kernels' column tiles never run short. Derived state, built once
     * per GEMM weight and never serialized; a copy carries it.
     */
    void packPairs();
    /** Whether packPairs() has run. */
    bool hasPairs() const { return pairStride_ > 0 || cols_ == 0; }
    /** Pair row @p p (codes 2p and 2p + 1) of the k-pair pack. */
    const int32_t *pairRow(int64_t p) const
    {
        return pairs_.data() + p * pairStride_;
    }

    /** Column alignment of the k-pair pack: the GEMM tile width. */
    static constexpr int64_t kPairColumns = 16;

  private:
    /** Pack @p n rows: rows (*rows)[i], or rows 0..n-1 when null. */
    QuantizedMatrix(const Matrix &x, const std::vector<int32_t> *rows,
                    int64_t n, const QuantParams &qp);

    int64_t rows_ = 0;
    int64_t cols_ = 0;
    QuantParams qp_;
    std::vector<int8_t> q8_;
    std::vector<int16_t> q16_;
    int64_t pairStride_ = 0;
    std::vector<int32_t> pairs_;
};

/**
 * Quantized values of a sparse operator. The pattern (indptr/indices)
 * stays in the source CsrMatrix, which must outlive this object; only
 * the value array is re-coded (int16 storage covers every bits <= 16).
 */
struct QuantizedCsr
{
    const CsrMatrix *pattern = nullptr;
    QuantParams qp;
    std::vector<int16_t> values;
};

/** Quantize a sparse operator's values at @p bits (pattern by pointer). */
QuantizedCsr quantizeCsr(const CsrMatrix &a, int bits);

/** Quantize @p a's values with explicit params (shared-scale callers). */
QuantizedCsr quantizeCsr(const CsrMatrix &a, const QuantParams &qp);

} // namespace gcod

#endif // GCOD_TENSOR_QUANT_HPP
