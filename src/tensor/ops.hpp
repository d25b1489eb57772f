/**
 * @file
 * Dense and sparse linear-algebra kernels.
 *
 * SpMM runs row-wise (gathered) products over CSR: each output row is
 * written by one range in operator-row entry order, so results are
 * thread-count invariant. The column-wise (distributed) dataflow of the
 * paper's Fig. 7 lives in the fused pipelines (tensor/fused.hpp).
 */
#ifndef GCOD_TENSOR_OPS_HPP
#define GCOD_TENSOR_OPS_HPP

#include "graph/sparse.hpp"
#include "tensor/matrix.hpp"

namespace gcod {

/**
 * Dense C = A * B. Each c(i, j) starts at +0.0f and adds a(i, k) *
 * b(k, j) in ascending k, a separate multiply and add per term — the
 * scalar i-k-j kernel's sequence of float operations, so the bytes do
 * not depend on the thread count or on which body ran
 * (tensor/gemm_isa.hpp). The baseline body skips zero activations; the
 * AVX2 body runs k dense in multi-row register tiles, whose extra terms
 * are 0 · b = ±0 and leave every sum unchanged while B is finite. A B
 * holding inf or NaN (checked once per call) therefore takes the
 * baseline body.
 */
Matrix matmul(const Matrix &a, const Matrix &b);

/**
 * matmul on the calling thread: no parallel region, the same bytes.
 * The compact row-set form of a GEMM op (runOp over a level).
 */
Matrix matmulSerial(const Matrix &a, const Matrix &b);

/** Dense C = A^T * B (used by backward passes). */
Matrix matmulTransposedA(const Matrix &a, const Matrix &b);

/** Dense C = A * B^T (used by backward passes). */
Matrix matmulTransposedB(const Matrix &a, const Matrix &b);

/** Sparse-dense Y = A * X using row-wise (gathered) products. */
Matrix spmmRowWise(const CsrMatrix &a, const Matrix &x);

/** Convenience: Y = A * X through the CSR row-wise kernel. */
Matrix spmm(const CsrMatrix &a, const Matrix &x);

/** Elementwise ReLU, returning max(x, 0). */
Matrix relu(const Matrix &x);

/** Gradient mask of ReLU: grad * (x > 0). */
Matrix reluBackward(const Matrix &grad, const Matrix &x);

/** Elementwise LeakyReLU with negative slope alpha. */
Matrix leakyRelu(const Matrix &x, float alpha);

/** Row-wise softmax. */
Matrix softmaxRows(const Matrix &x);

/**
 * Mean cross-entropy over the rows selected by mask (mask empty = all).
 * @param probs  row-stochastic predictions (softmax output)
 * @param labels class index per row
 */
double crossEntropy(const Matrix &probs, const std::vector<int> &labels,
                    const std::vector<bool> &mask = {});

/**
 * Combined softmax + cross-entropy backward over masked rows:
 * grad = (probs - onehot(labels)) / |mask| restricted to masked rows.
 */
Matrix softmaxCrossEntropyBackward(const Matrix &probs,
                                   const std::vector<int> &labels,
                                   const std::vector<bool> &mask = {});

/** Fraction of masked rows whose argmax equals the label. */
double accuracy(const Matrix &logits, const std::vector<int> &labels,
                const std::vector<bool> &mask = {});

/** Horizontal concatenation [A | B]. */
Matrix hconcat(const Matrix &a, const Matrix &b);

/** Row-wise mean of a list of equally-shaped matrices. */
Matrix meanOf(const std::vector<Matrix> &ms);

} // namespace gcod

#endif // GCOD_TENSOR_OPS_HPP
