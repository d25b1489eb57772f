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

/** Dense C = A * B. */
Matrix matmul(const Matrix &a, const Matrix &b);

/**
 * One row of matmul: out[j] = Σ_k a[k] · b(k, j) for j < b.cols(),
 * adding the nonzero a[k] in ascending k from 0.0f — a 16-column
 * register tile per pass over the row. matmul runs every row through
 * it, so a caller computing a single row gets the batch kernel's bytes.
 */
void matmulRowInto(const float *a, const Matrix &b, float *out);

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
