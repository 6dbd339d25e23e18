/**
 * @file
 * Pluggable dense GEMM backends.
 *
 * Every dense MMUL in the repository bottoms out here. Two backends
 * compute the same golden arithmetic:
 *
 *  - Reference: the naive triple loops the golden model has always
 *    used (full IEEE accumulation, no skips).
 *  - Blocked:   one micro-kernel, the SIMD table's gemmPanelF32, under
 *    both float forms. B (or, for A * B^T, B transposed) is packed
 *    into 128-column k x nb panels — a B no wider than one panel is
 *    read in place — and the kernel keeps a tile of C (AVX-512 4x32,
 *    AVX2 4x16) in registers over the whole k range. A and B are read
 *    through their row strides, so column-slice views need no copy.
 *    Built for the tall stacked activations the cohort path produces
 *    (many rows against one shared weight matrix). The quantised
 *    forms run its integer twin, gemmPanelI32, the same way (see
 *    matmulQuantBlockScaledWith).
 *
 * Bit-identity contract: for every output element both backends
 * perform the identical sequence of floating-point operations — the
 * accumulator starts at +0.0f and adds a(i,k)*b(k,j) for k ascending,
 * with no partial-sum splitting, reassociation or skipping — so
 * Blocked is bit-identical to Reference by construction, not by
 * tolerance. Blocking only reorders *which element* is worked on
 * next (and copies B values, which is exact); each register lane
 * holds one element's accumulator, so the reduction inside an
 * element is never reordered. The property tests in tests/test_gemm.cc
 * enforce this over adversarial shapes including NaN/Inf payloads.
 *
 * Backend selection: callers either pass a backend explicitly
 * (matmulWith and friends) or go through the process-wide default
 * (matmul/matmulTransposed/matmulQuant in ops.h dispatch on
 * defaultGemmBackend()). Layered code — executors, the serving engine
 * — threads an explicit backend instead of mutating the process
 * default, so engines with different options can coexist in one
 * process.
 */

#ifndef EXION_TENSOR_GEMM_H_
#define EXION_TENSOR_GEMM_H_

#include <optional>
#include <span>
#include <string>

#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

/** Dense GEMM kernel implementations. */
enum class GemmBackend
{
    Reference, //!< naive triple loop (golden model)
    Blocked,   //!< register-blocked panel kernel (bit-identical)
};

/**
 * Process-wide default backend consulted by the ops.h entry points
 * and by defaulted constructor/option parameters across the model
 * and sparsity layers. Starts as Reference. Thread-safe (atomic).
 */
GemmBackend defaultGemmBackend();

/** Sets the process-wide default backend. Thread-safe (atomic). */
void setDefaultGemmBackend(GemmBackend backend);

/** Lower-case backend name ("reference" / "blocked"). */
const char *gemmBackendName(GemmBackend backend);

/** Parses a backend name; nullopt for anything unrecognised. */
std::optional<GemmBackend> parseGemmBackend(const std::string &name);

/*
 * The explicit-backend entry points additionally take the SIMD tier
 * the Blocked backend's inner loops run under (see simd_dispatch.h).
 * The Reference backend ignores it — the golden triple loops stay
 * exactly as written. Exact-tier kernels are bit-identical to the
 * scalar chains, so the Blocked-vs-Reference identity contract above
 * holds for Scalar and Exact alike; Fast reassociates the transposed
 * form's k reductions and is tolerance-gated.
 */

/** C = A * B with an explicit backend. @pre A.cols() == B.rows(). */
Matrix matmulWith(const Matrix &a, const Matrix &b, GemmBackend backend,
                  SimdTier simd = defaultSimdTier());

/** C = A * B^T with an explicit backend. @pre A.cols() == B.cols(). */
Matrix matmulTransposedWith(const Matrix &a, const Matrix &b,
                            GemmBackend backend,
                            SimdTier simd = defaultSimdTier());

/**
 * Integer matmul with an explicit backend: C(i, j) =
 * float(acc(i, j) * (A.scale() * B.scale())), where acc is the exact
 * i64 sum over k of A(i, k) * B(k, j).
 * @pre as matmulQuantBlockScaledWith
 */
Matrix matmulQuantWith(const QuantMatrix &a, const QuantMatrix &b,
                       GemmBackend backend,
                       SimdTier simd = defaultSimdTier());

/**
 * Integer matmul dequantised with one scale per block of `width`
 * columns: C(i, j) = float(acc(i, j) * scales[j / width]), acc the
 * exact i64 sum over k of A(i, k) * B(k, j) (converted to double
 * before the multiply). B's and A's own scales are not applied —
 * fold them into scales. This is how eager prediction dequantises
 * every head's LD projection out of one across-head GEMM against
 * [Wq | Wk], each head's columns with its own scale: every column's
 * sum is independent of the others, so the bytes equal a per-head
 * GEMM's.
 *
 * Integer sums are exact in any order, so both backends and every
 * tier yield the same bytes. Blocked runs the kernel table's
 * gemmPanelI32 over 128-column panels of B read in place, with i32
 * accumulators over runs of chunk = floor((2^31 - 1) /
 * (max|a| * max|b|)) terms folded into i64, where max|v| =
 * 2^(bits - 1) for each operand's IntWidth (quantize() clamps to
 * [-2^(bits-1), 2^(bits-1) - 1]): 511 terms for two INT12 operands.
 * Each 32 x 128 block of accumulators is dequantised (the table's
 * dequantizeI64F32) while still in cache, so no m x n i64 temporary
 * exists. An Int32 operand leaves no i32 run, and Blocked then falls
 * back to the reference loop.
 *
 * @pre A.cols() == B.rows(), width > 0, scales cover B's columns, and
 *      every value lies in its operand's IntWidth range (as
 *      quantize() and ldImage() guarantee)
 */
Matrix matmulQuantBlockScaledWith(const QuantMatrix &a,
                                  const QuantMatrix &b,
                                  std::span<const double> scales,
                                  Index width, GemmBackend backend,
                                  SimdTier simd = defaultSimdTier());

} // namespace exion

#endif // EXION_TENSOR_GEMM_H_
