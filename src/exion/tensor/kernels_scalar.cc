/**
 * @file
 * Scalar reference kernels — the golden chains every vector table is
 * measured against.
 *
 * These loops are the ops.h accumulation contract spelled out once:
 * separate rounded multiply and add per term, ascending index order,
 * +0.0f accumulator starts, ordered compares (NaN never sets a bit).
 * Compiled with -ffp-contract=off so no toolchain fuses a chain here
 * that a vector kernel keeps unfused (or vice versa).
 */

#include "exion/tensor/simd_dispatch.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace exion
{
namespace simd
{

void
axpyF32Scalar(float *out, const float *x, float a, Index n)
{
    for (Index j = 0; j < n; ++j)
        out[j] += a * x[j];
}

void
gemmPanelF32Scalar(float *c, Index ldc, const float *a, Index lda,
                   const float *b, Index ldb, Index m, Index n,
                   Index k)
{
    // One C row at a time, four k steps jammed per sweep: each
    // element still adds its terms one at a time in ascending k from
    // a +0.0f start, but the row is loaded and stored once per four
    // terms instead of every term.
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
            for (Index j = 0; j < n; ++j) {
                float acc = crow[j];
                acc += a0 * b0[j];
                acc += a1 * b1[j];
                acc += a2 * b2[j];
                acc += a3 * b3[j];
                crow[j] = acc;
            }
        }
        for (; kk < k; ++kk)
            axpyF32Scalar(crow, b + kk * ldb, arow[kk], n);
    }
}

void
gemmPanelI32Scalar(i64 *c, Index ldc, const i32 *a, Index lda,
                   const i32 *b, Index ldb, Index m, Index n, Index k,
                   Index chunk)
{
    // One C row at a time in 64-column strips: each strip sums a run
    // of at most chunk k terms in i32 accumulators, then folds the run
    // into the row's i64 elements.
    constexpr Index kStrip = 64;
    i32 acc[kStrip];
    for (Index i = 0; i < m; ++i) {
        const i32 *arow = a + i * lda;
        i64 *crow = c + i * ldc;
        for (Index j0 = 0; j0 < n; j0 += kStrip) {
            const Index nb = std::min(kStrip, n - j0);
            for (Index jj = 0; jj < nb; ++jj)
                crow[j0 + jj] = 0;
            for (Index k0 = 0; k0 < k; k0 += chunk) {
                const Index k1 = std::min(k, k0 + chunk);
                for (Index jj = 0; jj < nb; ++jj)
                    acc[jj] = 0;
                for (Index kk = k0; kk < k1; ++kk) {
                    const i32 av = arow[kk];
                    const i32 *brow = b + kk * ldb + j0;
                    for (Index jj = 0; jj < nb; ++jj)
                        acc[jj] += av * brow[jj];
                }
                for (Index jj = 0; jj < nb; ++jj)
                    crow[j0 + jj] += acc[jj];
            }
        }
    }
}

void
dequantizeI64F32Scalar(float *out, const i64 *acc, double scale, Index n)
{
    for (Index i = 0; i < n; ++i)
        out[i] = static_cast<float>(static_cast<double>(acc[i]) * scale);
}

void
weightedRowSumF32Scalar(float *out, const float *v, Index ldv,
                        const Index *rows, const float *w, Index count,
                        Index n)
{
    for (Index j = 0; j < n; ++j)
        out[j] = 0.0f;
    for (Index t = 0; t < count; ++t)
        axpyF32Scalar(out, v + rows[t] * ldv, w[t], n);
}

float
dotF32Scalar(const float *a, const float *b, Index n)
{
    float acc = 0.0f;
    for (Index k = 0; k < n; ++k)
        acc += a[k] * b[k];
    return acc;
}

i64
dotI32Scalar(const i32 *a, const i32 *b, Index n)
{
    i64 acc = 0;
    for (Index k = 0; k < n; ++k)
        acc += static_cast<i64>(a[k]) * b[k];
    return acc;
}

u64
absGreaterMask64Scalar(const float *x, float theta, Index n)
{
    u64 bits = 0;
    for (Index i = 0; i < n; ++i)
        if (std::abs(x[i]) > theta)
            bits |= u64{1} << i;
    return bits;
}

u64
cmpGeMask64Scalar(const float *x, float threshold, Index n)
{
    u64 bits = 0;
    for (Index i = 0; i < n; ++i)
        if (x[i] >= threshold)
            bits |= u64{1} << i;
    return bits;
}

u64
popcountWordsScalar(const u64 *w, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(std::popcount(w[i]));
    return total;
}

u64
andPopcountWordsScalar(const u64 *a, const u64 *b, Index n)
{
    u64 total = 0;
    for (Index i = 0; i < n; ++i)
        total += static_cast<u64>(std::popcount(a[i] & b[i]));
    return total;
}

void
orWordsScalar(u64 *dst, const u64 *src, Index n)
{
    for (Index i = 0; i < n; ++i)
        dst[i] |= src[i];
}

const SimdKernels &
scalarTable()
{
    static const SimdKernels table = {
        "scalar",
        axpyF32Scalar,
        gemmPanelF32Scalar,
        gemmPanelI32Scalar,
        dequantizeI64F32Scalar,
        weightedRowSumF32Scalar,
        dotF32Scalar,
        dotI32Scalar,
        absGreaterMask64Scalar,
        cmpGeMask64Scalar,
        popcountWordsScalar,
        andPopcountWordsScalar,
        orWordsScalar,
    };
    return table;
}

} // namespace simd
} // namespace exion
