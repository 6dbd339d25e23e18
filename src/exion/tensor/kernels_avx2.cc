/**
 * @file
 * AVX2 kernel table (256-bit lanes).
 *
 * Exactness discipline: float kernels vectorize across independent
 * output elements with separate _mm256_mul_ps / _mm256_add_ps (never
 * FMA — the golden chains round twice per term), ragged tails fall
 * back to the scalar reference chains, and compares are ordered-quiet
 * (_CMP_*_OQ) so NaN lanes never set mask bits.
 *
 * This TU alone is compiled with -mavx2 (plus -ffp-contract=off);
 * it must only be *called* after the runtime probe confirmed AVX2.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace exion
{
namespace simd
{

namespace
{

void
axpyF32Avx2(float *out, const float *x, float a, Index n)
{
    const __m256 va = _mm256_set1_ps(a);
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 o = _mm256_loadu_ps(out + j);
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va, _mm256_loadu_ps(x + j)));
        _mm256_storeu_ps(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

void
axpy4F32Avx2(float *out, const float *x0, const float *x1,
             const float *x2, const float *x3, float a0, float a1,
             float a2, float a3, Index n)
{
    const __m256 va0 = _mm256_set1_ps(a0);
    const __m256 va1 = _mm256_set1_ps(a1);
    const __m256 va2 = _mm256_set1_ps(a2);
    const __m256 va3 = _mm256_set1_ps(a3);
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 o = _mm256_loadu_ps(out + j);
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va0, _mm256_loadu_ps(x0 + j)));
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va1, _mm256_loadu_ps(x1 + j)));
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va2, _mm256_loadu_ps(x2 + j)));
        o = _mm256_add_ps(
            o, _mm256_mul_ps(va3, _mm256_loadu_ps(x3 + j)));
        _mm256_storeu_ps(out + j, o);
    }
    if (j < n)
        axpy4F32Scalar(out + j, x0 + j, x1 + j, x2 + j, x3 + j, a0,
                       a1, a2, a3, n - j);
}

float
dotF32Avx2(const float *a, const float *b, Index n)
{
    // Fast-tier kernel: two 8-lane accumulators, reassociated.
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    Index k = 0;
    for (; k + 16 <= n; k += 16) {
        acc0 = _mm256_add_ps(
            acc0, _mm256_mul_ps(_mm256_loadu_ps(a + k),
                                _mm256_loadu_ps(b + k)));
        acc1 = _mm256_add_ps(
            acc1, _mm256_mul_ps(_mm256_loadu_ps(a + k + 8),
                                _mm256_loadu_ps(b + k + 8)));
    }
    for (; k + 8 <= n; k += 8)
        acc0 = _mm256_add_ps(
            acc0, _mm256_mul_ps(_mm256_loadu_ps(a + k),
                                _mm256_loadu_ps(b + k)));
    const __m256 acc = _mm256_add_ps(acc0, acc1);
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    float total = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (; k < n; ++k)
        total += a[k] * b[k];
    return total;
}

/** Sum of the four i64 lanes. */
i64
hsum64(__m256i v)
{
    alignas(32) i64 lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

i64
dotI32Avx2(const i32 *a, const i32 *b, Index n)
{
    __m256i acc = _mm256_setzero_si256();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + k));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + k));
        // Signed 32x32 -> 64 on even lanes; shift down for odd lanes.
        const __m256i even = _mm256_mul_epi32(va, vb);
        const __m256i odd = _mm256_mul_epi32(
            _mm256_srli_epi64(va, 32), _mm256_srli_epi64(vb, 32));
        acc = _mm256_add_epi64(acc, even);
        acc = _mm256_add_epi64(acc, odd);
    }
    i64 total = hsum64(acc);
    if (k < n)
        total += dotI32Scalar(a + k, b + k, n - k);
    return total;
}

u64
absGreaterMask64Avx2(const float *x, float theta, Index n)
{
    const __m256 vt = _mm256_set1_ps(theta);
    const __m256 sign = _mm256_set1_ps(-0.0f);
    u64 bits = 0;
    Index i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 mag =
            _mm256_andnot_ps(sign, _mm256_loadu_ps(x + i));
        const int lane_bits = _mm256_movemask_ps(
            _mm256_cmp_ps(mag, vt, _CMP_GT_OQ));
        bits |= static_cast<u64>(static_cast<unsigned>(lane_bits))
            << i;
    }
    if (i < n)
        bits |= absGreaterMask64Scalar(x + i, theta, n - i) << i;
    return bits;
}

u64
cmpGeMask64Avx2(const float *x, float threshold, Index n)
{
    const __m256 vt = _mm256_set1_ps(threshold);
    u64 bits = 0;
    Index i = 0;
    for (; i + 8 <= n; i += 8) {
        const int lane_bits = _mm256_movemask_ps(
            _mm256_cmp_ps(_mm256_loadu_ps(x + i), vt, _CMP_GE_OQ));
        bits |= static_cast<u64>(static_cast<unsigned>(lane_bits))
            << i;
    }
    if (i < n)
        bits |= cmpGeMask64Scalar(x + i, threshold, n - i) << i;
    return bits;
}

/*
 * The word kernels reuse the scalar bodies: compiled in this TU with
 * -mavx2 (which implies POPCNT), std::popcount lowers to the
 * hardware instruction the baseline-ISA scalar TU cannot emit.
 */

u64
popcountWordsAvx2(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(w[i]));
    return total;
}

u64
andPopcountWordsAvx2(const u64 *a, const u64 *b, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(a[i] & b[i]));
    return total;
}

} // namespace

const SimdKernels *
avx2Table()
{
    static const SimdKernels table = {
        "avx2",
        axpyF32Avx2,
        axpy4F32Avx2,
        dotF32Avx2,
        dotI32Avx2,
        absGreaterMask64Avx2,
        cmpGeMask64Avx2,
        popcountWordsAvx2,
        andPopcountWordsAvx2,
        orWordsScalar,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !defined(__AVX2__)

namespace exion
{
namespace simd
{

const SimdKernels *
avx2Table()
{
    return nullptr;
}

} // namespace simd
} // namespace exion

#endif
