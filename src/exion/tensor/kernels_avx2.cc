/**
 * @file
 * AVX2 kernel table (256-bit lanes).
 *
 * Exactness discipline: float kernels vectorize across independent
 * output elements with separate _mm256_mul_ps / _mm256_add_ps (never
 * FMA — the golden chains round twice per term), ragged tails fall
 * back to the scalar reference chains (the GEMM panel kernels and
 * the gathered-row sum mask them instead), and compares are
 * ordered-quiet (_CMP_*_OQ) so NaN lanes never set mask bits.
 *
 * This TU alone is compiled with -mavx2 (plus -ffp-contract=off);
 * it must only be *called* after the runtime probe confirmed AVX2.
 */

#include "exion/tensor/simd_dispatch.h"

#if defined(__AVX2__)

#include <algorithm>

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

/**
 * One R x 8V tile of C over the whole k range: R*V accumulators stay
 * in registers, each lane one output element's golden chain (+0.0f
 * start, kk ascending, mul then add). With Tail the last column
 * vector is masked to `tail` (all-ones lanes live): masked-off B
 * lanes load +0.0f (and never fault), and masked-off C lanes are not
 * stored.
 */
template <int R, int V, bool Tail>
inline void
panelTileAvx2(float *c, Index ldc, const float *a, Index lda,
              const float *b, Index ldb, Index k, __m256i tail)
{
    __m256 acc[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm256_setzero_ps();
    for (Index kk = 0; kk < k; ++kk) {
        const float *brow = b + kk * ldb;
        __m256 bv[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            bv[v] = Tail && v == V - 1
                ? _mm256_maskload_ps(brow + 8 * v, tail)
                : _mm256_loadu_ps(brow + 8 * v);
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m256 av = _mm256_set1_ps(a[r * lda + kk]);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm256_add_ps(acc[r][v],
                                          _mm256_mul_ps(av, bv[v]));
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            float *dst = c + r * ldc + 8 * v;
            if (Tail && v == V - 1)
                _mm256_maskstore_ps(dst, tail, acc[r][v]);
            else
                _mm256_storeu_ps(dst, acc[r][v]);
        }
}

/** R rows of C across all n columns: 16-wide tiles, then the ragged
    tail as one full and/or one masked 8-lane vector. */
template <int R>
void
panelRowsAvx2(float *c, Index ldc, const float *a, Index lda,
              const float *b, Index ldb, Index n, Index k)
{
    Index j = 0;
    const __m256i none = _mm256_setzero_si256();
    for (; j + 16 <= n; j += 16)
        panelTileAvx2<R, 2, false>(c + j, ldc, a, lda, b + j, ldb, k,
                                   none);
    const Index rest = n - j;
    const auto mask = [](Index lanes) {
        return _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(lanes)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    };
    if (rest > 8)
        panelTileAvx2<R, 2, true>(c + j, ldc, a, lda, b + j, ldb, k,
                                  mask(rest - 8));
    else if (rest == 8)
        panelTileAvx2<R, 1, false>(c + j, ldc, a, lda, b + j, ldb, k,
                                   none);
    else if (rest > 0)
        panelTileAvx2<R, 1, true>(c + j, ldc, a, lda, b + j, ldb, k,
                                  mask(rest));
}

void
gemmPanelF32Avx2(float *c, Index ldc, const float *a, Index lda,
                 const float *b, Index ldb, Index m, Index n,
                 Index k)
{
    Index i = 0;
    for (; i + 4 <= m; i += 4)
        panelRowsAvx2<4>(c + i * ldc, ldc, a + i * lda, lda, b, ldb, n,
                         k);
    c += i * ldc;
    a += i * lda;
    switch (m - i) {
    case 3:
        panelRowsAvx2<3>(c, ldc, a, lda, b, ldb, n, k);
        break;
    case 2:
        panelRowsAvx2<2>(c, ldc, a, lda, b, ldb, n, k);
        break;
    case 1:
        panelRowsAvx2<1>(c, ldc, a, lda, b, ldb, n, k);
        break;
    default:
        break;
    }
}

/**
 * One R x 8V tile of an integer GEMM over the whole k range, one run
 * of at most chunk terms at a time: R*V i32 accumulators stay in
 * registers over a run, then each is sign-extended into two 4-lane
 * i64 halves that are stored (first run) or added into C. With Tail
 * only the first `tail` lanes (1..8) of the last column vector are
 * live: masked-off B lanes load 0 (and never fault), and masked-off C
 * lanes are neither read nor written.
 */
template <int R, int V, bool Tail>
inline void
panelTileI32Avx2(i64 *c, Index ldc, const i32 *a, Index lda,
                 const i32 *b, Index ldb, Index k, Index chunk,
                 Index tail)
{
    const __m256i live = _mm256_set1_epi64x(static_cast<long long>(tail));
    const __m256i m32 = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(tail)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256i mlo =
        _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256i mhi =
        _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(4, 5, 6, 7));
    Index k0 = 0;
    do {
        const Index k1 = std::min(k, k0 + chunk);
        __m256i acc[R][V];
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm256_setzero_si256();
        for (Index kk = k0; kk < k1; ++kk) {
            const i32 *brow = b + kk * ldb;
            __m256i bv[V];
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                bv[v] = Tail && v == V - 1
                    ? _mm256_maskload_epi32(brow + 8 * v, m32)
                    : _mm256_loadu_si256(
                          reinterpret_cast<const __m256i *>(brow + 8 * v));
#pragma GCC unroll 4
            for (int r = 0; r < R; ++r) {
                const __m256i av = _mm256_set1_epi32(a[r * lda + kk]);
#pragma GCC unroll 2
                for (int v = 0; v < V; ++v)
                    acc[r][v] = _mm256_add_epi32(
                        acc[r][v], _mm256_mullo_epi32(av, bv[v]));
            }
        }
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v) {
                auto *dst =
                    reinterpret_cast<long long *>(c + r * ldc + 8 * v);
                __m256i lo = _mm256_cvtepi32_epi64(
                    _mm256_castsi256_si128(acc[r][v]));
                __m256i hi = _mm256_cvtepi32_epi64(
                    _mm256_extracti128_si256(acc[r][v], 1));
                if (Tail && v == V - 1) {
                    if (k0 > 0) {
                        lo = _mm256_add_epi64(
                            lo, _mm256_maskload_epi64(dst, mlo));
                        hi = _mm256_add_epi64(
                            hi, _mm256_maskload_epi64(dst + 4, mhi));
                    }
                    _mm256_maskstore_epi64(dst, mlo, lo);
                    _mm256_maskstore_epi64(dst + 4, mhi, hi);
                } else {
                    auto *vdst = reinterpret_cast<__m256i *>(dst);
                    if (k0 > 0) {
                        lo = _mm256_add_epi64(lo,
                                              _mm256_loadu_si256(vdst));
                        hi = _mm256_add_epi64(
                            hi, _mm256_loadu_si256(vdst + 1));
                    }
                    _mm256_storeu_si256(vdst, lo);
                    _mm256_storeu_si256(vdst + 1, hi);
                }
            }
        k0 = k1;
    } while (k0 < k);
}

/** R rows of integer C across all n columns, tiled like
    panelRowsAvx2. */
template <int R>
void
panelRowsI32Avx2(i64 *c, Index ldc, const i32 *a, Index lda,
                 const i32 *b, Index ldb, Index n, Index k, Index chunk)
{
    Index j = 0;
    for (; j + 16 <= n; j += 16)
        panelTileI32Avx2<R, 2, false>(c + j, ldc, a, lda, b + j, ldb, k,
                                      chunk, 0);
    const Index rest = n - j;
    if (rest > 8)
        panelTileI32Avx2<R, 2, true>(c + j, ldc, a, lda, b + j, ldb, k,
                                     chunk, rest - 8);
    else if (rest == 8)
        panelTileI32Avx2<R, 1, false>(c + j, ldc, a, lda, b + j, ldb, k,
                                      chunk, 0);
    else if (rest > 0)
        panelTileI32Avx2<R, 1, true>(c + j, ldc, a, lda, b + j, ldb, k,
                                     chunk, rest);
}

void
gemmPanelI32Avx2(i64 *c, Index ldc, const i32 *a, Index lda,
                 const i32 *b, Index ldb, Index m, Index n, Index k,
                 Index chunk)
{
    Index i = 0;
    for (; i + 4 <= m; i += 4)
        panelRowsI32Avx2<4>(c + i * ldc, ldc, a + i * lda, lda, b, ldb,
                            n, k, chunk);
    c += i * ldc;
    a += i * lda;
    switch (m - i) {
    case 3:
        panelRowsI32Avx2<3>(c, ldc, a, lda, b, ldb, n, k, chunk);
        break;
    case 2:
        panelRowsI32Avx2<2>(c, ldc, a, lda, b, ldb, n, k, chunk);
        break;
    case 1:
        panelRowsI32Avx2<1>(c, ldc, a, lda, b, ldb, n, k, chunk);
        break;
    default:
        break;
    }
}

void
dequantizeI64F32Avx2(float *out, const i64 *acc, double scale, Index n)
{
    // AVX2 has no i64 -> double convert: each lane's signed high and
    // unsigned low 32 bits are converted exactly (the low half offset
    // by 2^31 through the signed convert, then re-added exactly),
    // hi * 2^32 is exact, and the final add rounds once — the
    // correctly rounded double(acc) of the scalar conversion.
    const __m256i split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    const __m128i flip = _mm_set1_epi32(static_cast<int>(0x80000000u));
    const __m256d two31 = _mm256_set1_pd(2147483648.0);
    const __m256d two32 = _mm256_set1_pd(4294967296.0);
    const __m256d vscale = _mm256_set1_pd(scale);
    Index i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_permutevar8x32_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(acc + i)),
            split);
        const __m256d hi =
            _mm256_cvtepi32_pd(_mm256_extracti128_si256(x, 1));
        const __m256d lo = _mm256_add_pd(
            _mm256_cvtepi32_pd(
                _mm_xor_si128(_mm256_castsi256_si128(x), flip)),
            two31);
        const __m256d d = _mm256_add_pd(_mm256_mul_pd(hi, two32), lo);
        _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(d, vscale)));
    }
    if (i < n)
        dequantizeI64F32Scalar(out + i, acc + i, scale, n - i);
}

/**
 * Q 8-lane accumulators (the last masked to `tail`) over every
 * gathered row: the golden chain per lane, out stored once.
 */
template <int Q>
inline void
rowSumBlockAvx2(float *out, const float *v, Index ldv, const Index *rows,
                const float *w, Index count, __m256i tail)
{
    __m256 acc[Q];
#pragma GCC unroll 4
    for (int q = 0; q < Q; ++q)
        acc[q] = _mm256_setzero_ps();
    for (Index t = 0; t < count; ++t) {
        const float *vrow = v + rows[t] * ldv;
        const __m256 wt = _mm256_set1_ps(w[t]);
#pragma GCC unroll 4
        for (int q = 0; q < Q; ++q) {
            const __m256 x = q == Q - 1
                ? _mm256_maskload_ps(vrow + 8 * q, tail)
                : _mm256_loadu_ps(vrow + 8 * q);
            acc[q] = _mm256_add_ps(acc[q], _mm256_mul_ps(wt, x));
        }
    }
#pragma GCC unroll 4
    for (int q = 0; q < Q; ++q) {
        if (q == Q - 1)
            _mm256_maskstore_ps(out + 8 * q, tail, acc[q]);
        else
            _mm256_storeu_ps(out + 8 * q, acc[q]);
    }
}

void
weightedRowSumF32Avx2(float *out, const float *v, Index ldv,
                      const Index *rows, const float *w, Index count,
                      Index n)
{
    for (Index j = 0; j < n; j += 32) {
        const Index nb = std::min<Index>(32, n - j);
        const Index last = nb - 8 * ((nb - 1) / 8); // 1..8 lanes
        const __m256i tail = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(last)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        switch ((nb + 7) / 8) {
        case 4:
            rowSumBlockAvx2<4>(out + j, v + j, ldv, rows, w, count, tail);
            break;
        case 3:
            rowSumBlockAvx2<3>(out + j, v + j, ldv, rows, w, count, tail);
            break;
        case 2:
            rowSumBlockAvx2<2>(out + j, v + j, ldv, rows, w, count, tail);
            break;
        default:
            rowSumBlockAvx2<1>(out + j, v + j, ldv, rows, w, count, tail);
            break;
        }
    }
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
        gemmPanelF32Avx2,
        gemmPanelI32Avx2,
        dequantizeI64F32Avx2,
        weightedRowSumF32Avx2,
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
