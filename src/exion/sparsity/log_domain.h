/**
 * @file
 * Log-domain arithmetic of the eager-prediction engine (Fig. 5a / 15).
 *
 * Operands are approximated by their leading-one position (LOD) or the
 * two leading set bits (TS-LOD); a multiply becomes an exponent
 * addition realised as a shift, and accumulation of the resulting
 * one-hot values uses the one-hot adder tree (functionally: exact sums
 * of powers of two).
 */

#ifndef EXION_SPARSITY_LOG_DOMAIN_H_
#define EXION_SPARSITY_LOG_DOMAIN_H_

#include <vector>

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
 * Signed LOD image of a quantised operand: per element
 * img(v) = sign(v) * lodValue(|v|) in Single mode and
 * sign(v) * tsLodValue(|v|) in TwoStep mode.
 *
 * The four TS-LOD cross terms (2^a1 + 2^a2)(2^b1 + 2^b2) are exactly
 * tsLodValue(|a|) * tsLodValue(|b|), and 2^(pa+pb) is
 * lodValue(|a|) * lodValue(|b|), so ldProduct(a, b, mode) ==
 * img(a) * img(b): a log-domain matmul is a plain GEMM of images.
 * Images are held as doubles, which represent them exactly.
 */
struct LdImage
{
    Index rows = 0;
    Index cols = 0;
    LodMode mode = LodMode::TwoStep;
    double scale = 1.0;         //!< the source operand's scale
    std::vector<double> values; //!< row-major, rows x cols
};

/**
 * Builds the image of q (of q^T when transposed is set).
 *
 * @pre q's width is at most Int16: then |img| <= 2^15, every product
 *      is below 2^31 and any partial sum of fewer than 2^22 of them
 *      below 2^53, so the image GEMM is exact in any summation order.
 */
LdImage ldImage(const QuantMatrix &q, LodMode mode,
                bool transposed = false);

/**
 * A (m x k) * B (k x n) of two images of the same LOD depth,
 * dequantised to float.
 *
 * Accumulation is exact (the one-hot adder tree merges one-hot
 * addends losslessly; here, integer-valued doubles below 2^53), so
 * the result equals the ldProduct chain in every order and on every
 * host, and no SIMD tier is involved.
 */
Matrix ldMatmul(const LdImage &a, const LdImage &b);

/**
 * Log-domain A (m x k) * B (k x n): the image GEMM of a and b. The
 * SIMD tier is accepted for call-site uniformity only — the result is
 * the same in every tier.
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
