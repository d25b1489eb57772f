/**
 * @file
 * Tests for the dense/sparse kernels and quantization, including numeric
 * identities between the row-wise and column-wise SpMM dataflows (the
 * paper's Fig. 5/7 product orders must compute the same result).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "graph/sparse.hpp"
#include "sim/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

using namespace gcod;

namespace {

Matrix
randomDense(int64_t r, int64_t c, Rng &rng)
{
    Matrix m(r, c);
    for (auto &v : m.data())
        v = float(rng.normal(0.0, 1.0));
    return m;
}

CsrMatrix
randomSparse(NodeId r, NodeId c, int nnz, Rng &rng)
{
    CooMatrix coo(r, c);
    for (int i = 0; i < nnz; ++i)
        coo.add(NodeId(rng.uniformInt(0, r - 1)),
                NodeId(rng.uniformInt(0, c - 1)),
                float(rng.normal(0.0, 1.0)));
    return coo.toCsr();
}

Matrix
denseOf(const CsrMatrix &m)
{
    Matrix d(m.rows(), m.cols(), 0.0f);
    m.forEach([&](NodeId r, NodeId c, float v) { d(r, c) += v; });
    return d;
}

} // namespace

// ----------------------------------------------------------------- matrix
TEST(Matrix, FillAndIndexing)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
    m(0, 0) = 7.0f;
    EXPECT_FLOAT_EQ(m(0, 0), 7.0f);
    m.fill(0.0f);
    EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
    EXPECT_EQ(m.size(), 6);
}

TEST(Matrix, ArithmeticOps)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 2.0f);
    a += b;
    EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
    a -= b;
    EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
    a *= 4.0f;
    EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
    EXPECT_THROW(a += Matrix(3, 3), std::logic_error);
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix m(1, 2);
    m(0, 0) = 3.0f;
    m(0, 1) = 4.0f;
    EXPECT_NEAR(m.frobeniusNorm(), 5.0, 1e-6);
}

TEST(Matrix, GlorotInitWithinLimit)
{
    Rng rng(1);
    Matrix m(64, 32);
    m.glorotInit(rng);
    double limit = std::sqrt(6.0 / (64 + 32));
    for (float v : m.data()) {
        EXPECT_LE(std::fabs(v), limit + 1e-6);
    }
    EXPECT_GT(m.frobeniusNorm(), 0.0);
}

// ------------------------------------------------------------------- gemm
TEST(Gemm, MatchesHandComputation)
{
    Matrix a(2, 2), b(2, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
    b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
    Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 19);
    EXPECT_FLOAT_EQ(c(0, 1), 22);
    EXPECT_FLOAT_EQ(c(1, 0), 43);
    EXPECT_FLOAT_EQ(c(1, 1), 50);
}

TEST(Gemm, TransposedVariantsAgreeWithExplicitTranspose)
{
    Rng rng(2);
    Matrix a = randomDense(7, 5, rng);
    Matrix b = randomDense(7, 4, rng);
    // A^T B via matmulTransposedA vs building A^T.
    Matrix at(5, 7);
    for (int64_t i = 0; i < 7; ++i)
        for (int64_t j = 0; j < 5; ++j)
            at(j, i) = a(i, j);
    EXPECT_LT(Matrix::maxAbsDiff(matmulTransposedA(a, b), matmul(at, b)),
              1e-4);

    Matrix c = randomDense(6, 5, rng);
    Matrix d = randomDense(8, 5, rng);
    Matrix dt(5, 8);
    for (int64_t i = 0; i < 8; ++i)
        for (int64_t j = 0; j < 5; ++j)
            dt(j, i) = d(i, j);
    EXPECT_LT(Matrix::maxAbsDiff(matmulTransposedB(c, d), matmul(c, dt)),
              1e-4);
}

// ------------------------------------------------------------------- spmm
TEST(Spmm, RowWiseMatchesDenseReference)
{
    Rng rng(3);
    CsrMatrix a = randomSparse(12, 9, 40, rng);
    Matrix x = randomDense(9, 5, rng);
    Matrix ref = matmul(denseOf(a), x);
    EXPECT_LT(Matrix::maxAbsDiff(spmmRowWise(a, x), ref), 1e-4);
}

TEST(Spmm, EmptyMatrixGivesZeros)
{
    CooMatrix coo(4, 4);
    CsrMatrix a = coo.toCsr();
    Matrix x(4, 3, 1.0f);
    Matrix y = spmm(a, x);
    EXPECT_DOUBLE_EQ(y.frobeniusNorm(), 0.0);
}

// ------------------------------------------------------------ activations
TEST(Activations, ReluClampsNegatives)
{
    Matrix x(1, 4);
    x(0, 0) = -1; x(0, 1) = 0; x(0, 2) = 2; x(0, 3) = -0.5;
    Matrix y = relu(x);
    EXPECT_FLOAT_EQ(y(0, 0), 0);
    EXPECT_FLOAT_EQ(y(0, 2), 2);
}

TEST(Activations, ReluBackwardMasksByPreactivation)
{
    Matrix x(1, 3), g(1, 3, 1.0f);
    x(0, 0) = -1; x(0, 1) = 0; x(0, 2) = 3;
    Matrix gx = reluBackward(g, x);
    EXPECT_FLOAT_EQ(gx(0, 0), 0);
    EXPECT_FLOAT_EQ(gx(0, 1), 0);
    EXPECT_FLOAT_EQ(gx(0, 2), 1);
}

TEST(Activations, LeakyReluSlope)
{
    Matrix x(1, 2);
    x(0, 0) = -2.0f;
    x(0, 1) = 2.0f;
    Matrix y = leakyRelu(x, 0.1f);
    EXPECT_FLOAT_EQ(y(0, 0), -0.2f);
    EXPECT_FLOAT_EQ(y(0, 1), 2.0f);
}

TEST(Softmax, RowsSumToOneAndShiftInvariant)
{
    Rng rng(5);
    Matrix x = randomDense(6, 9, rng);
    Matrix p = softmaxRows(x);
    for (int64_t r = 0; r < p.rows(); ++r) {
        double sum = 0.0;
        for (int64_t c = 0; c < p.cols(); ++c) {
            sum += p(r, c);
            EXPECT_GE(p(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
    Matrix shifted = x;
    shifted *= 1.0f;
    for (auto &v : shifted.data())
        v += 100.0f;
    EXPECT_LT(Matrix::maxAbsDiff(softmaxRows(shifted), p), 1e-5);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss)
{
    Matrix p(2, 2, 0.0f);
    p(0, 0) = 1.0f;
    p(1, 1) = 1.0f;
    EXPECT_NEAR(crossEntropy(p, {0, 1}), 0.0, 1e-6);
}

TEST(CrossEntropy, MaskSelectsRows)
{
    Matrix p(2, 2, 0.5f);
    double all = crossEntropy(p, {0, 1});
    double one = crossEntropy(p, {0, 1}, {true, false});
    EXPECT_NEAR(all, one, 1e-6); // identical rows -> identical mean
    EXPECT_NEAR(one, -std::log(0.5), 1e-5);
}

TEST(CrossEntropy, GradientMatchesNumericalDerivative)
{
    // Check d(CE . softmax)/dlogits against finite differences.
    Rng rng(6);
    Matrix logits = randomDense(3, 4, rng);
    std::vector<int> labels = {1, 3, 0};
    Matrix grad = softmaxCrossEntropyBackward(softmaxRows(logits), labels);
    const float eps = 1e-3f;
    for (int64_t r = 0; r < 3; ++r) {
        for (int64_t c = 0; c < 4; ++c) {
            Matrix lp = logits, lm = logits;
            lp(r, c) += eps;
            lm(r, c) -= eps;
            double num = (crossEntropy(softmaxRows(lp), labels) -
                          crossEntropy(softmaxRows(lm), labels)) /
                         (2.0 * eps);
            EXPECT_NEAR(grad(r, c), num, 5e-3);
        }
    }
}

TEST(Accuracy, CountsArgmaxMatches)
{
    Matrix logits(3, 2, 0.0f);
    logits(0, 0) = 1.0f; // predicts 0
    logits(1, 1) = 1.0f; // predicts 1
    logits(2, 0) = 1.0f; // predicts 0
    EXPECT_NEAR(accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(accuracy(logits, {0, 1, 1}, {true, false, false}), 1.0,
                1e-9);
}

TEST(Concat, HconcatLaysOutSideBySide)
{
    Matrix a(2, 2, 1.0f), b(2, 3, 2.0f);
    Matrix c = hconcat(a, b);
    EXPECT_EQ(c.cols(), 5);
    EXPECT_FLOAT_EQ(c(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(c(0, 2), 2.0f);
}

TEST(MeanOf, AveragesMatrices)
{
    Matrix a(1, 2, 1.0f), b(1, 2, 3.0f);
    Matrix m = meanOf({a, b});
    EXPECT_FLOAT_EQ(m(0, 0), 2.0f);
}

// ------------------------------------------------------------------ quant
TEST(Quant, RoundTripWithinHalfScale)
{
    Rng rng(7);
    Matrix x = randomDense(10, 10, rng);
    QuantParams qp = chooseQuantParams(x, 8);
    Matrix back = dequantize(quantize(x, qp), 10, 10, qp);
    EXPECT_LE(Matrix::maxAbsDiff(x, back), qp.scale * 0.5 + 1e-7);
}

TEST(Quant, SymmetricClampAtTwoBits)
{
    // Regression: quantize() used to clamp to the full two's-complement
    // range [-2^{b-1}, 2^{b-1}-1] while chooseQuantParams scales the
    // peak to 2^{b-1}-1, leaving an extra, asymmetric most-negative
    // code reachable for shared-scale callers. At bits=2 the off-by-one
    // is visible: codes must stay in [-1, 1].
    QuantParams qp;
    qp.bits = 2;
    qp.scale = 1.0f;
    Matrix x(1, 3);
    x(0, 0) = -5.0f;
    x(0, 1) = 5.0f;
    x(0, 2) = -1.0f;
    std::vector<int32_t> q = quantize(x, qp);
    EXPECT_EQ(q[0], -1); // was -2 before the fix
    EXPECT_EQ(q[1], 1);
    EXPECT_EQ(q[2], -1);
    // Saturated negative and positive peaks dequantize symmetrically.
    Matrix back = dequantize(q, 1, 3, qp);
    EXPECT_FLOAT_EQ(back(0, 0), -back(0, 1));
}

TEST(Quant, FakeQuantizeIdempotent)
{
    Rng rng(8);
    Matrix x = randomDense(6, 6, rng);
    Matrix q1 = fakeQuantize(x, 8);
    Matrix q2 = fakeQuantize(q1, 8);
    EXPECT_LT(Matrix::maxAbsDiff(q1, q2), 1e-5);
}

TEST(Quant, ZeroMatrixSurvives)
{
    Matrix x(4, 4, 0.0f);
    Matrix q = fakeQuantize(x, 8);
    EXPECT_DOUBLE_EQ(q.frobeniusNorm(), 0.0);
}

TEST(Quant, DegreeAwareProtectsHighDegreeRows)
{
    Rng rng(9);
    Matrix x = randomDense(8, 4, rng);
    std::vector<int32_t> degrees = {1, 1, 1, 1, 1, 1, 1, 100};
    Matrix q = degreeAwareFakeQuantize(x, degrees, 4, 0.2);
    // The protected row is bit-exact; at 4 bits others generally are not.
    for (int64_t c = 0; c < 4; ++c)
        EXPECT_FLOAT_EQ(q(7, c), x(7, c));
}

class QuantBits : public ::testing::TestWithParam<int>
{};

TEST_P(QuantBits, ErrorShrinksWithMoreBits)
{
    Rng rng(10);
    Matrix x = randomDense(16, 16, rng);
    int bits = GetParam();
    double err = quantizationError(x, bits);
    double err_next = quantizationError(x, bits + 2);
    EXPECT_LT(err_next, err + 1e-9);
    // Error bounded by half a quantization step.
    QuantParams qp = chooseQuantParams(x, bits);
    EXPECT_LE(err, qp.scale * 0.5 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantBits, ::testing::Values(4, 6, 8, 10));
