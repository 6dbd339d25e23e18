/**
 * @file
 * Log-domain arithmetic of the eager-prediction engine (Fig. 5a / 15).
 *
 * Operands are approximated by their leading-one position (LOD) or the
 * two leading set bits (TS-LOD); a multiply becomes an exponent
 * addition realised as a shift, and accumulation of the resulting
 * one-hot values uses the one-hot adder tree (functionally: exact sums
 * of powers of two). Here both become an exact integer GEMM of the
 * operands' LOD images.
 */

#ifndef EXION_SPARSITY_LOG_DOMAIN_H_
#define EXION_SPARSITY_LOG_DOMAIN_H_

#include "exion/common/bitops.h"
#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{

/** Leading-one detection depth. */
enum class LodMode
{
    Single,  //!< original EP (FACT): one bit per operand
    TwoStep, //!< EXION's TS-LOD: two bits per operand
};

/**
 * Approximate signed product of two integers in the log domain.
 *
 * Single mode: sign * 2^(p_a + p_b). TwoStep mode: the four (or fewer)
 * cross terms of (2^a1 + 2^a2)(2^b1 + 2^b2).
 */
i64 ldProduct(i32 a, i32 b, LodMode mode);

/**
 * Signed LOD image of q (of q^T when transposed is set), as a
 * QuantMatrix with q's params: per element
 * img(v) = sign(v) * lodValue(|v|) in Single mode and
 * sign(v) * tsLodValue(|v|) in TwoStep mode.
 *
 * The four TS-LOD cross terms (2^a1 + 2^a2)(2^b1 + 2^b2) are exactly
 * tsLodValue(|a|) * tsLodValue(|b|), and 2^(pa+pb) is
 * lodValue(|a|) * lodValue(|b|), so ldProduct(a, b, mode) ==
 * img(a) * img(b): a log-domain matmul is a plain integer GEMM of
 * images. |img(v)| <= |v|, so an image lies inside its source's
 * IntWidth range (|img| <= 2048 for INT12) and that width's
 * integer-GEMM chunk bound holds for it.
 *
 * @pre q's width is at most Int16
 */
QuantMatrix ldImage(const QuantMatrix &q, LodMode mode,
                    bool transposed = false);

/**
 * Log-domain A (m x k) * B (k x n), dequantised to float: the Blocked
 * integer GEMM of the two images (matmulQuantWith), each element
 * float(acc * (a.scale * b.scale)).
 *
 * Accumulation is exact — the one-hot adder tree merges one-hot
 * addends losslessly; here, i32 runs of at most
 * floor((2^31 - 1) / (max|a| * max|b|)) terms (511 for INT12
 * operands) folded into i64 (gemm.h) — so the result equals the
 * ldProduct chain summed in i64, for any k, in every SIMD tier and on
 * every host. No step goes through floating point before the final
 * dequantisation. The tier only picks the kernel table.
 */
Matrix ldMatmul(const QuantMatrix &a, const QuantMatrix &b, LodMode mode,
                SimdTier simd = defaultSimdTier());

/** Log-domain A (m x k) * B^T (n x k), dequantised to float. */
Matrix ldMatmulTransposed(const QuantMatrix &a, const QuantMatrix &b,
                          LodMode mode,
                          SimdTier simd = defaultSimdTier());

/**
 * Convenience: quantise both float operands to INT12, then run the
 * log-domain product A * B.
 */
Matrix ldMatmulFloat(const Matrix &a, const Matrix &b, LodMode mode,
                     SimdTier simd = defaultSimdTier());

} // namespace exion

#endif // EXION_SPARSITY_LOG_DOMAIN_H_
