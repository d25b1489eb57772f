/**
 * @file
 * The instruction set the dense GEMM kernels run on. matmul and
 * qmatmulRowScaled each carry a baseline x86-64 (SSE2) body and an AVX2
 * body compiled with __attribute__((target("avx2"))) — AVX2 only, never
 * FMA, so no multiply-add contracts. The AVX2 body runs when the CPU
 * reports AVX2, chosen once per process, as the CRC-32C dispatch in
 * store/format.cpp does. Both bodies give the same bytes.
 *
 * Internal to the library: the tests that compare the two bodies and
 * the kernel bench include it. No option or environment variable
 * selects the ISA.
 */
#ifndef GCOD_TENSOR_GEMM_ISA_HPP
#define GCOD_TENSOR_GEMM_ISA_HPP

#include "tensor/qops.hpp"

// The AVX2 bodies are built by GCC (its target attribute and pragma);
// other compilers build the baseline bodies alone.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GCOD_GEMM_AVX2 1
#endif

namespace gcod {

/** A GEMM body: the baseline (SSE2) one or the AVX2 one. */
enum class GemmIsa { Baseline, Avx2 };

/** The body this CPU runs: Avx2 when it reports AVX2. */
GemmIsa hostGemmIsa();

/** "baseline" or "avx2". */
const char *gemmIsaName(GemmIsa isa);

/** matmul through @p isa's body (which this CPU must support). */
Matrix matmulOn(GemmIsa isa, const Matrix &a, const Matrix &b);

/** qmatmulRowScaled through @p isa's body. */
Matrix qmatmulRowScaledOn(GemmIsa isa, const RowQuantizedMatrix &x,
                          const QuantizedMatrix &w_lo,
                          const QuantizedMatrix &w_hi);

} // namespace gcod

#endif // GCOD_TENSOR_GEMM_ISA_HPP
