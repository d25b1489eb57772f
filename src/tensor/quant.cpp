#include "quant.hpp"

#include <algorithm>
#include <cmath>

namespace gcod {

QuantParams
symmetricQuantParams(float peak, int bits)
{
    GCOD_ASSERT(bits >= 2 && bits <= 16, "unsupported quant width");
    float qmax = float((1 << (bits - 1)) - 1);
    QuantParams qp;
    qp.bits = bits;
    qp.scale = peak > 0.0f ? peak / qmax : 1.0f;
    return qp;
}

QuantParams
chooseQuantParams(const Matrix &x, int bits)
{
    float peak = 0.0f;
    for (float v : x.data())
        peak = std::max(peak, std::fabs(v));
    return symmetricQuantParams(peak, bits);
}

std::vector<int32_t>
quantize(const Matrix &x, const QuantParams &qp)
{
    // Symmetric clamp: chooseQuantParams scales the peak to +qmax, so the
    // two's-complement extra negative code -(qmax+1) must stay unused or
    // shared-scale callers get an asymmetric range.
    int32_t hi = (1 << (qp.bits - 1)) - 1;
    int32_t lo = -hi;
    std::vector<int32_t> q(x.data().size());
    for (size_t i = 0; i < q.size(); ++i) {
        auto v = int32_t(std::lround(x.data()[i] / qp.scale));
        q[i] = std::clamp(v, lo, hi);
    }
    return q;
}

Matrix
dequantize(const std::vector<int32_t> &q, int64_t rows, int64_t cols,
           const QuantParams &qp)
{
    GCOD_ASSERT(q.size() == size_t(rows * cols), "dequantize size mismatch");
    Matrix x(rows, cols);
    for (size_t i = 0; i < q.size(); ++i)
        x.data()[i] = float(q[i]) * qp.scale;
    return x;
}

Matrix
fakeQuantize(const Matrix &x, int bits)
{
    QuantParams qp = chooseQuantParams(x, bits);
    return dequantize(quantize(x, qp), x.rows(), x.cols(), qp);
}

double
quantizationError(const Matrix &x, int bits)
{
    return Matrix::maxAbsDiff(x, fakeQuantize(x, bits));
}

int32_t
protectionThreshold(const std::vector<int32_t> &degrees,
                    double protect_ratio)
{
    GCOD_ASSERT(!degrees.empty(), "protectionThreshold needs degrees");
    std::vector<int32_t> sorted = degrees;
    std::sort(sorted.begin(), sorted.end());
    size_t cut = size_t(double(sorted.size()) *
                        std::clamp(1.0 - protect_ratio, 0.0, 1.0));
    if (cut >= sorted.size())
        cut = sorted.size() - 1;
    return sorted[cut];
}

Matrix
degreeAwareFakeQuantize(const Matrix &x, const std::vector<int32_t> &degrees,
                        int bits, double protect_ratio)
{
    GCOD_ASSERT(degrees.size() == size_t(x.rows()),
                "degree count must match rows");
    int32_t threshold = protectionThreshold(degrees, protect_ratio);

    Matrix q = fakeQuantize(x, bits);
    Matrix out = q;
    for (int64_t r = 0; r < x.rows(); ++r) {
        if (degrees[size_t(r)] >= threshold) {
            // Protected high-degree row: keep full precision.
            std::copy(x.row(r), x.row(r) + x.cols(), out.row(r));
        }
    }
    return out;
}

QuantizedMatrix::QuantizedMatrix(const Matrix &x, int bits)
    : QuantizedMatrix(x, chooseQuantParams(x, bits))
{}

QuantizedMatrix::QuantizedMatrix(const Matrix &x, const QuantParams &qp)
    : rows_(x.rows()), cols_(x.cols()), qp_(qp)
{
    GCOD_ASSERT(qp_.bits >= 2 && qp_.bits <= 16,
                "packed quantization supports 2..16 bits");
    GCOD_ASSERT(qp_.scale > 0.0f, "quantization scale must be positive");
    int32_t hi = (1 << (qp_.bits - 1)) - 1;
    float inv = 1.0f / qp_.scale;
    size_t n = x.data().size();
    if (narrow()) {
        q8_.resize(n);
        for (size_t i = 0; i < n; ++i)
            q8_[i] = int8_t(std::clamp(
                int32_t(std::lround(x.data()[i] * inv)), -hi, hi));
    } else {
        q16_.resize(n);
        for (size_t i = 0; i < n; ++i)
            q16_[i] = int16_t(std::clamp(
                int32_t(std::lround(x.data()[i] * inv)), -hi, hi));
    }
}

QuantizedMatrix
QuantizedMatrix::fromCodes(int64_t rows, int64_t cols, const QuantParams &qp,
                           std::vector<int8_t> q8, std::vector<int16_t> q16)
{
    if (qp.bits < 2 || qp.bits > 16 || qp.scale <= 0.0f)
        GCOD_FATAL("packed codes carry invalid quant params (bits=",
                   qp.bits, ", scale=", qp.scale, ")");
    QuantizedMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.qp_ = qp;
    size_t n = size_t(rows * cols);
    const size_t have = m.narrow() ? q8.size() : q16.size();
    const size_t other = m.narrow() ? q16.size() : q8.size();
    if (rows < 0 || cols < 0 || have != n || other != 0)
        GCOD_FATAL("packed code payload does not match its ", rows, "x",
                   cols, " @", qp.bits, "-bit shape");
    m.q8_ = std::move(q8);
    m.q16_ = std::move(q16);
    return m;
}

Matrix
QuantizedMatrix::toMatrix() const
{
    Matrix x(rows_, cols_);
    for (int64_t i = 0; i < rows_ * cols_; ++i)
        x.data()[size_t(i)] =
            float(at(i / cols_, i % cols_)) * qp_.scale;
    return x;
}

double
QuantizedMatrix::payloadBytes() const
{
    return double(rows_ * cols_) * (narrow() ? 1.0 : 2.0);
}

QuantizedCsr
quantizeCsr(const CsrMatrix &a, int bits)
{
    float peak = 0.0f;
    for (float v : a.values())
        peak = std::max(peak, std::fabs(v));
    return quantizeCsr(a, symmetricQuantParams(peak, bits));
}

QuantizedCsr
quantizeCsr(const CsrMatrix &a, const QuantParams &qp)
{
    GCOD_ASSERT(qp.bits >= 2 && qp.bits <= 16 && qp.scale > 0.0f,
                "packed operator quantization supports 2..16 bits");
    QuantizedCsr q;
    q.pattern = &a;
    q.qp = qp;
    int32_t hi = (1 << (qp.bits - 1)) - 1;
    float inv = 1.0f / qp.scale;
    q.values.resize(a.values().size());
    for (size_t i = 0; i < q.values.size(); ++i)
        q.values[i] = int16_t(std::clamp(
            int32_t(std::lround(a.values()[i] * inv)), -hi, hi));
    return q;
}

} // namespace gcod
