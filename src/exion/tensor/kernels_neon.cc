/**
 * @file
 * ARM NEON kernel table (128-bit lanes).
 *
 * Exactness discipline matches the x86 tables: float kernels combine
 * separate vmulq_f32 / vaddq_f32 — never vmlaq/vfmaq, which lower to
 * fused FMLA on AArch64 and would round once where the golden chain
 * rounds twice — ragged tails fall back to the scalar reference, and
 * compares go through the scalar kernels (NEON has no move-mask; at
 * the 64-bit-word granularity the mask kernels run at, the scalar
 * chains are already cheap next to lane extraction).
 *
 * Compiled with -ffp-contract=off like every kernel TU.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

namespace exion
{
namespace simd
{

namespace
{

void
axpyF32Neon(float *out, const float *x, float a, Index n)
{
    const float32x4_t va = vdupq_n_f32(a);
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
        float32x4_t o = vld1q_f32(out + j);
        o = vaddq_f32(o, vmulq_f32(va, vld1q_f32(x + j)));
        vst1q_f32(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

void
gemmPanelF32Neon(float *c, Index ldc, const float *a, Index lda,
                 const float *b, Index ldb, Index m, Index n,
                 Index k)
{
    // The scalar table's row sweep, four lanes wide: each C row is
    // zeroed, then takes four jammed k steps per pass.
    for (Index i = 0; i < m; ++i) {
        const float *arow = a + i * lda;
        float *crow = c + i * ldc;
        for (Index j = 0; j < n; ++j)
            crow[j] = 0.0f;
        Index kk = 0;
        for (; kk + 4 <= k; kk += 4) {
            const float *b0 = b + kk * ldb;
            const float *b1 = b0 + ldb;
            const float *b2 = b1 + ldb;
            const float *b3 = b2 + ldb;
            const float a0 = arow[kk];
            const float a1 = arow[kk + 1];
            const float a2 = arow[kk + 2];
            const float a3 = arow[kk + 3];
            const float32x4_t va0 = vdupq_n_f32(a0);
            const float32x4_t va1 = vdupq_n_f32(a1);
            const float32x4_t va2 = vdupq_n_f32(a2);
            const float32x4_t va3 = vdupq_n_f32(a3);
            Index j = 0;
            for (; j + 4 <= n; j += 4) {
                float32x4_t o = vld1q_f32(crow + j);
                o = vaddq_f32(o, vmulq_f32(va0, vld1q_f32(b0 + j)));
                o = vaddq_f32(o, vmulq_f32(va1, vld1q_f32(b1 + j)));
                o = vaddq_f32(o, vmulq_f32(va2, vld1q_f32(b2 + j)));
                o = vaddq_f32(o, vmulq_f32(va3, vld1q_f32(b3 + j)));
                vst1q_f32(crow + j, o);
            }
            for (; j < n; ++j) {
                float acc = crow[j];
                acc += a0 * b0[j];
                acc += a1 * b1[j];
                acc += a2 * b2[j];
                acc += a3 * b3[j];
                crow[j] = acc;
            }
        }
        for (; kk < k; ++kk)
            axpyF32Neon(crow, b + kk * ldb, arow[kk], n);
    }
}

float
dotF32Neon(const float *a, const float *b, Index n)
{
    // Fast-tier kernel: two 4-lane accumulators, reassociated.
    float32x4_t acc0 = vdupq_n_f32(0.0f);
    float32x4_t acc1 = vdupq_n_f32(0.0f);
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        acc0 = vaddq_f32(
            acc0, vmulq_f32(vld1q_f32(a + k), vld1q_f32(b + k)));
        acc1 = vaddq_f32(
            acc1,
            vmulq_f32(vld1q_f32(a + k + 4), vld1q_f32(b + k + 4)));
    }
    for (; k + 4 <= n; k += 4)
        acc0 = vaddq_f32(
            acc0, vmulq_f32(vld1q_f32(a + k), vld1q_f32(b + k)));
    const float32x4_t acc = vaddq_f32(acc0, acc1);
    float total = (vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 2))
        + (vgetq_lane_f32(acc, 1) + vgetq_lane_f32(acc, 3));
    for (; k < n; ++k)
        total += a[k] * b[k];
    return total;
}

i64
dotI32Neon(const i32 *a, const i32 *b, Index n)
{
    int64x2_t acc = vdupq_n_s64(0);
    Index k = 0;
    for (; k + 4 <= n; k += 4) {
        const int32x4_t va = vld1q_s32(a + k);
        const int32x4_t vb = vld1q_s32(b + k);
        acc = vaddq_s64(
            acc, vmull_s32(vget_low_s32(va), vget_low_s32(vb)));
        acc = vaddq_s64(
            acc, vmull_s32(vget_high_s32(va), vget_high_s32(vb)));
    }
    i64 total = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
    if (k < n)
        total += dotI32Scalar(a + k, b + k, n - k);
    return total;
}

} // namespace

const SimdKernels *
neonTable()
{
    static const SimdKernels table = {
        "neon",
        axpyF32Neon,
        gemmPanelF32Neon,
        gemmPanelI32Scalar,
        dequantizeI64F32Scalar,
        weightedRowSumF32Scalar,
        dotF32Neon,
        dotI32Neon,
        absGreaterMask64Scalar,
        cmpGeMask64Scalar,
        popcountWordsScalar,
        andPopcountWordsScalar,
        orWordsScalar,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !__ARM_NEON

namespace exion
{
namespace simd
{

const SimdKernels *
neonTable()
{
    return nullptr;
}

} // namespace simd
} // namespace exion

#endif
