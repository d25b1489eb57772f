/**
 * @file
 * Integer (quantized) dense and sparse kernels — the host execution path
 * of the GCoD low-bit variants (paper Tab. VI/VII). Where tensor/ops.cpp
 * computes in fp32, these kernels multiply packed integer codes and
 * accumulate them exactly, applying the scales once per output element.
 *
 * Accumulator contract: a sum accumulates in int32 when a bound proves
 * no partial sum can leave int32, and in int64 otherwise. For a GEMM
 * branch the bound is W packed at <= 8 bits with 2 · qmax_x · qmax_w <=
 * INT16_MAX and K · qmax_x · qmax_w <= INT32_MAX (every 8-bit row up to
 * K = 133 144); for the branch of a mixed SpMM row it is Σ|a_k| · qmax_x
 * <= INT32_MAX. Exact integer sums do not depend on the accumulator type
 * or on the order of the terms, so the output bytes are the same
 * either way; the wider type is only the fallback past the bound.
 *
 * Determinism contract (matches sim/parallel): every kernel partitions
 * its OUTPUT rows, and integer accumulation is associative, so results
 * are bit-identical for any thread count — and, because each output row
 * depends only on its own exact integer sums, bit-identical when rows
 * are computed shard-by-shard and stitched (shard/executor).
 *
 * Mixed precision follows GCoD's dense/sparse split: activations are
 * row-partitioned into a low-bit branch (the polarized dense community
 * nodes) and a higher-bit branch (the protected high-degree tail), each
 * packed with its own per-matrix scale; kernels keep one integer
 * accumulator per branch and combine the two scaled sums per element.
 */
#ifndef GCOD_TENSOR_QOPS_HPP
#define GCOD_TENSOR_QOPS_HPP

#include <array>

#include "tensor/quant.hpp"

namespace gcod {

/**
 * Row-partitioned two-branch quantized activation matrix. Global row r
 * lives in branch branchOf[r] (0 = low-bit dense branch, 1 = higher-bit
 * protected branch) at row localIndex[r] of that branch's packed matrix.
 * The referenced vectors must outlive this object (they belong to the
 * model-level quantization pack, nn/quant_exec).
 */
struct MixedQuantizedMatrix
{
    const std::vector<uint8_t> *branchOf = nullptr;
    const std::vector<int32_t> *localIndex = nullptr;
    QuantizedMatrix lo;
    QuantizedMatrix hi;

    int64_t rows() const { return int64_t(branchOf->size()); }
    int64_t cols() const { return lo.rows() ? lo.cols() : hi.cols(); }
};

/** localIndex companion of a branch assignment: row -> in-branch row. */
std::vector<int32_t> branchLocalIndex(const std::vector<uint8_t> &branch_of);

/**
 * Split @p x by @p branch_of and pack each branch at its own bit width
 * with a fresh per-branch symmetric scale. Scales depend only on the
 * (global) matrix content, so monolithic and sharded executions that
 * quantize the same global activations get identical codes.
 */
MixedQuantizedMatrix mixedQuantize(const Matrix &x,
                                   const std::vector<uint8_t> &branch_of,
                                   const std::vector<int32_t> &local_index,
                                   int lo_bits, int hi_bits);

/**
 * mixedQuantize with caller-chosen per-branch params: a row subset of a
 * global activation matrix, packed with the global matrix's scales,
 * gets exactly the codes those rows have in the global pack.
 */
MixedQuantizedMatrix mixedQuantize(const Matrix &x,
                                   const std::vector<uint8_t> &branch_of,
                                   const std::vector<int32_t> &local_index,
                                   const QuantParams &lo,
                                   const QuantParams &hi);

/**
 * Y = deq(A) * deq(X) with two-branch X; integer per-branch sums, each
 * in int32 when that row's Σ|a_k| · qmax of the branch fits (see the
 * accumulator contract above).
 */
Matrix qspmmMixed(const QuantizedCsr &a, const MixedQuantizedMatrix &x);

/**
 * Per-row quantized GEMM input: row r is coded at the branch-matching
 * bit width with its OWN symmetric scale. A row's scale multiplies
 * every term of that row's dot products, so it factors out of the
 * integer accumulation exactly — per-row scales keep the determinism
 * contract while covering activations whose per-row dynamic range one
 * per-branch scale cannot (Add-aggregation sums make hub rows dwarf
 * leaf rows, starving the leaves of codes). Codes are stored widened
 * to int16: this is a transient runtime operand, never a wire or store
 * format. SpMM inputs CANNOT use per-row scales — aggregation mixes
 * rows inside one integer accumulator — and keep mixedQuantize's
 * per-branch packing.
 */
struct RowQuantizedMatrix
{
    const std::vector<uint8_t> *branchOf = nullptr;
    std::vector<int16_t> codes;  ///< rows x cols, row-major
    std::vector<float> rowScale; ///< one symmetric scale per row
    /**
     * Largest |code| per branch (0 = dense, 1 = protected); the kernels
     * size their accumulators from it. Defaults to the int16 maximum.
     */
    std::array<int32_t, 2> qmax = {32767, 32767};

    int64_t rows = 0;
    int64_t cols = 0;

    const int16_t *row(int64_t r) const { return codes.data() + r * cols; }
};

/**
 * Pack @p x with one fresh symmetric scale per row at the
 * branch-matching width. Codes and scales are pure functions of the
 * row's own bytes, so monolithic, sharded, and incremental executions
 * over the same global activations always agree.
 */
RowQuantizedMatrix rowQuantize(const Matrix &x,
                               const std::vector<uint8_t> &branch_of,
                               int lo_bits, int hi_bits);

/**
 * Z = deq(X) * deq(W) with per-row X scales; row r uses the
 * branch-matching weight pack (W_lo dense, W_hi protected). Each
 * branch picks its accumulator once per call from K, the two qmax
 * values and W's packed width (the accumulator contract above); 8-bit
 * rows run a 16-column int32 register tile over the row's nonzero
 * codes, and every other row an int64 accumulator.
 */
Matrix qmatmulRowScaled(const RowQuantizedMatrix &x,
                        const QuantizedMatrix &w_lo,
                        const QuantizedMatrix &w_hi);

} // namespace gcod

#endif // GCOD_TENSOR_QOPS_HPP
