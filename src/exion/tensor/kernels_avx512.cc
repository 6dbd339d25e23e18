/**
 * @file
 * AVX-512F kernel table (512-bit lanes).
 *
 * Same exactness discipline as the AVX2 table: independent-element
 * float kernels with separate mul/add (no FMA), ordered-quiet
 * compares, integer reductions. The mask kernels are where AVX-512
 * shines — _mm512_cmp_ps_mask yields the 16 compare bits directly,
 * and masked loads make the ragged tail branch-free (masked-off
 * lanes load +0.0f and are excluded from the result mask, so NaN/Inf
 * beyond the tail cannot leak in). The GEMM panel kernel's column
 * tails use the same masked loads, plus masked stores.
 *
 * This TU alone is compiled with -mavx512f (plus -ffp-contract=off);
 * only called after the runtime probe confirmed AVX-512F.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace exion
{
namespace simd
{

namespace
{

void
axpyF32Avx512(float *out, const float *x, float a, Index n)
{
    const __m512 va = _mm512_set1_ps(a);
    Index j = 0;
    for (; j + 16 <= n; j += 16) {
        __m512 o = _mm512_loadu_ps(out + j);
        o = _mm512_add_ps(
            o, _mm512_mul_ps(va, _mm512_loadu_ps(x + j)));
        _mm512_storeu_ps(out + j, o);
    }
    if (j < n)
        axpyF32Scalar(out + j, x + j, a, n - j);
}

/**
 * One R x 16V tile of C over the whole k range: R*V accumulators
 * stay in registers, each lane one output element's golden chain
 * (+0.0f start, kk ascending, mul then add). With Tail the last
 * column vector is masked to `tail`: masked-off B lanes load
 * +0.0f (and never fault), and masked-off C lanes are not stored.
 */
template <int R, int V, bool Tail>
inline void
panelTileAvx512(float *c, Index ldc, const float *a, Index lda,
                const float *b, Index ldb, Index k, __mmask16 tail)
{
    __m512 acc[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm512_setzero_ps();
    for (Index kk = 0; kk < k; ++kk) {
        const float *brow = b + kk * ldb;
        __m512 bv[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            bv[v] = Tail && v == V - 1
                ? _mm512_maskz_loadu_ps(tail, brow + 16 * v)
                : _mm512_loadu_ps(brow + 16 * v);
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m512 av = _mm512_set1_ps(a[r * lda + kk]);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm512_add_ps(acc[r][v],
                                          _mm512_mul_ps(av, bv[v]));
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            float *dst = c + r * ldc + 16 * v;
            if (Tail && v == V - 1)
                _mm512_mask_storeu_ps(dst, tail, acc[r][v]);
            else
                _mm512_storeu_ps(dst, acc[r][v]);
        }
}

/** R rows of C across all n columns: 32-wide tiles, then the ragged
    tail as one full and/or one masked 16-lane vector. */
template <int R>
void
panelRowsAvx512(float *c, Index ldc, const float *a, Index lda,
                const float *b, Index ldb, Index n, Index k)
{
    Index j = 0;
    for (; j + 32 <= n; j += 32)
        panelTileAvx512<R, 2, false>(c + j, ldc, a, lda, b + j, ldb,
                                     k, 0);
    const Index rest = n - j;
    const auto mask = [](Index lanes) {
        return static_cast<__mmask16>((1u << lanes) - 1);
    };
    if (rest > 16)
        panelTileAvx512<R, 2, true>(c + j, ldc, a, lda, b + j, ldb,
                                    k, mask(rest - 16));
    else if (rest == 16)
        panelTileAvx512<R, 1, false>(c + j, ldc, a, lda, b + j, ldb,
                                     k, 0);
    else if (rest > 0)
        panelTileAvx512<R, 1, true>(c + j, ldc, a, lda, b + j, ldb,
                                    k, mask(rest));
}

void
gemmPanelF32Avx512(float *c, Index ldc, const float *a, Index lda,
                   const float *b, Index ldb, Index m, Index n,
                   Index k)
{
    Index i = 0;
    for (; i + 4 <= m; i += 4)
        panelRowsAvx512<4>(c + i * ldc, ldc, a + i * lda, lda, b, ldb,
                           n, k);
    c += i * ldc;
    a += i * lda;
    switch (m - i) {
    case 3:
        panelRowsAvx512<3>(c, ldc, a, lda, b, ldb, n, k);
        break;
    case 2:
        panelRowsAvx512<2>(c, ldc, a, lda, b, ldb, n, k);
        break;
    case 1:
        panelRowsAvx512<1>(c, ldc, a, lda, b, ldb, n, k);
        break;
    default:
        break;
    }
}

float
dotF32Avx512(const float *a, const float *b, Index n)
{
    // Fast-tier kernel: two 16-lane accumulators, reassociated.
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    Index k = 0;
    for (; k + 32 <= n; k += 32) {
        acc0 = _mm512_add_ps(
            acc0, _mm512_mul_ps(_mm512_loadu_ps(a + k),
                                _mm512_loadu_ps(b + k)));
        acc1 = _mm512_add_ps(
            acc1, _mm512_mul_ps(_mm512_loadu_ps(a + k + 16),
                                _mm512_loadu_ps(b + k + 16)));
    }
    for (; k + 16 <= n; k += 16)
        acc0 = _mm512_add_ps(
            acc0, _mm512_mul_ps(_mm512_loadu_ps(a + k),
                                _mm512_loadu_ps(b + k)));
    float total =
        _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
    for (; k < n; ++k)
        total += a[k] * b[k];
    return total;
}

i64
dotI32Avx512(const i32 *a, const i32 *b, Index n)
{
    __m512i acc = _mm512_setzero_si512();
    Index k = 0;
    for (; k + 16 <= n; k += 16) {
        const __m512i va = _mm512_loadu_si512(a + k);
        const __m512i vb = _mm512_loadu_si512(b + k);
        const __m512i even = _mm512_mul_epi32(va, vb);
        const __m512i odd = _mm512_mul_epi32(
            _mm512_srli_epi64(va, 32), _mm512_srli_epi64(vb, 32));
        acc = _mm512_add_epi64(acc, even);
        acc = _mm512_add_epi64(acc, odd);
    }
    i64 total = _mm512_reduce_add_epi64(acc);
    if (k < n)
        total += dotI32Scalar(a + k, b + k, n - k);
    return total;
}

u64
absGreaterMask64Avx512(const float *x, float theta, Index n)
{
    const __m512 vt = _mm512_set1_ps(theta);
    const __m512i sign = _mm512_set1_epi32(0x7fffffff);
    u64 bits = 0;
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = n - i >= 16
            ? static_cast<__mmask16>(0xffff)
            : static_cast<__mmask16>((1u << (n - i)) - 1);
        const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
        const __m512 mag = _mm512_castsi512_ps(
            _mm512_and_si512(_mm512_castps_si512(v), sign));
        const __mmask16 hit =
            _mm512_mask_cmp_ps_mask(live, mag, vt, _CMP_GT_OQ);
        bits |= static_cast<u64>(hit) << i;
    }
    return bits;
}

u64
cmpGeMask64Avx512(const float *x, float threshold, Index n)
{
    const __m512 vt = _mm512_set1_ps(threshold);
    u64 bits = 0;
    for (Index i = 0; i < n; i += 16) {
        const __mmask16 live = n - i >= 16
            ? static_cast<__mmask16>(0xffff)
            : static_cast<__mmask16>((1u << (n - i)) - 1);
        const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
        const __mmask16 hit =
            _mm512_mask_cmp_ps_mask(live, v, vt, _CMP_GE_OQ);
        bits |= static_cast<u64>(hit) << i;
    }
    return bits;
}

u64
popcountWordsAvx512(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(w[i]));
    return total;
}

u64
andPopcountWordsAvx512(const u64 *a, const u64 *b, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(__builtin_popcountll(a[i] & b[i]));
    return total;
}

} // namespace

const SimdKernels *
avx512Table()
{
    static const SimdKernels table = {
        "avx512",
        axpyF32Avx512,
        gemmPanelF32Avx512,
        dotF32Avx512,
        dotI32Avx512,
        absGreaterMask64Avx512,
        cmpGeMask64Avx512,
        popcountWordsAvx512,
        andPopcountWordsAvx512,
        orWordsScalar,
    };
    return &table;
}

} // namespace simd
} // namespace exion

#else // !defined(__AVX512F__)

namespace exion
{
namespace simd
{

const SimdKernels *
avx512Table()
{
    return nullptr;
}

} // namespace simd
} // namespace exion

#endif
