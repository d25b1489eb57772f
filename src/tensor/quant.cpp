#include "quant.hpp"

#include <algorithm>
#include <cmath>

#include "sim/parallel.hpp"

namespace gcod {

namespace {

/** Row i of @p x in a row-subset view: rows[i], or i with no list. */
int64_t
sourceRow(const std::vector<int32_t> *rows, int64_t i)
{
    return rows ? int64_t((*rows)[size_t(i)]) : i;
}

/**
 * max |x| over @p n rows (a subset when @p rows is set), one peak per
 * row on the pool, then a serial max of the row peaks.
 */
float
peakOf(const Matrix &x, const std::vector<int32_t> *rows, int64_t n)
{
    std::vector<float> rowPeak(static_cast<size_t>(n));
    parallelFor(
        0, n,
        [&](const Range &range, size_t) {
            for (int64_t i = range.begin; i < range.end; ++i)
                rowPeak[size_t(i)] =
                    maxAbs(x.row(sourceRow(rows, i)), x.cols());
        },
        rowGrain(x.cols()));
    return maxAbs(rowPeak.data(), n);
}

} // namespace

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
    return symmetricQuantParams(peakOf(x, nullptr, x.rows()), bits);
}

float
maxAbsRows(const Matrix &x, const std::vector<int32_t> &rows)
{
    return peakOf(x, &rows, int64_t(rows.size()));
}

std::vector<int32_t>
quantize(const Matrix &x, const QuantParams &qp)
{
    // Symmetric clamp: chooseQuantParams scales the peak to +qmax, so the
    // two's-complement extra negative code -(qmax+1) must stay unused or
    // shared-scale callers get an asymmetric range.
    int32_t hi = quantMax(qp.bits);
    std::vector<int32_t> q(x.data().size());
    for (size_t i = 0; i < q.size(); ++i)
        q[i] = roundToCode(x.data()[i] / qp.scale, hi);
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
    : QuantizedMatrix(x, nullptr, x.rows(), qp)
{}

QuantizedMatrix::QuantizedMatrix(const Matrix &x,
                                 const std::vector<int32_t> &rows,
                                 const QuantParams &qp)
    : QuantizedMatrix(x, &rows, int64_t(rows.size()), qp)
{}

QuantizedMatrix::QuantizedMatrix(const Matrix &x,
                                 const std::vector<int32_t> *rows,
                                 int64_t n, const QuantParams &qp)
    : rows_(n), cols_(x.cols()), qp_(qp)
{
    GCOD_ASSERT(qp_.bits >= 2 && qp_.bits <= 16,
                "packed quantization supports 2..16 bits");
    GCOD_ASSERT(qp_.scale > 0.0f, "quantization scale must be positive");
    if (rows)
        for (int32_t r : *rows)
            GCOD_ASSERT(r >= 0 && r < x.rows(), "packed row ", r,
                        " is outside the ", x.rows(), "-row source");
    const int32_t hi = quantMax(qp_.bits);
    const float inv = 1.0f / qp_.scale;
    if (narrow())
        q8_.resize(size_t(rows_ * cols_));
    else
        q16_.resize(size_t(rows_ * cols_));
    // Rows code independently, so any range split gives the same bytes.
    ParallelZone zone("quantizePack");
    parallelFor(
        0, rows_,
        [&](const Range &range, size_t) {
            for (int64_t i = range.begin; i < range.end; ++i) {
                const float *src = x.row(sourceRow(rows, i));
                if (narrow())
                    quantizeRow(src, cols_, inv, hi,
                                q8_.data() + i * cols_);
                else
                    quantizeRow(src, cols_, inv, hi,
                                q16_.data() + i * cols_);
            }
        },
        rowGrain(cols_));
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
    // The integer kernels size their accumulators from qmax, so a code
    // outside the symmetric range would break their exactness bounds.
    const int32_t hi = quantMax(qp.bits);
    auto inRange = [hi](int32_t c) { return c >= -hi && c <= hi; };
    if (!std::all_of(q8.begin(), q8.end(), inRange) ||
        !std::all_of(q16.begin(), q16.end(), inRange))
        GCOD_FATAL("packed codes exceed the symmetric ", qp.bits,
                   "-bit range ±", hi);
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

void
QuantizedMatrix::packPairs()
{
    pairStride_ = (cols_ + kPairColumns - 1) / kPairColumns * kPairColumns;
    const int64_t pairRows = (rows_ + 1) / 2;
    pairs_.assign(size_t(pairRows * pairStride_), 0);
    for (int64_t k = 0; k < rows_; ++k) {
        int32_t *dst = pairs_.data() + (k / 2) * pairStride_;
        const int shift = k % 2 == 0 ? 0 : 16;
        for (int64_t j = 0; j < cols_; ++j)
            dst[j] |= int32_t(uint32_t(uint16_t(at(k, j))) << shift);
    }
}

double
QuantizedMatrix::payloadBytes() const
{
    return double(rows_ * cols_) * (narrow() ? 1.0 : 2.0);
}

QuantizedCsr
quantizeCsr(const CsrMatrix &a, int bits)
{
    return quantizeCsr(a, symmetricQuantParams(
                              maxAbs(a.values().data(),
                                     int64_t(a.values().size())),
                              bits));
}

QuantizedCsr
quantizeCsr(const CsrMatrix &a, const QuantParams &qp)
{
    GCOD_ASSERT(qp.bits >= 2 && qp.bits <= 16 && qp.scale > 0.0f,
                "packed operator quantization supports 2..16 bits");
    QuantizedCsr q;
    q.pattern = &a;
    q.qp = qp;
    q.values.resize(a.values().size());
    quantizeRow(a.values().data(), int64_t(q.values.size()),
                1.0f / qp.scale, quantMax(qp.bits), q.values.data());
    return q;
}

} // namespace gcod
