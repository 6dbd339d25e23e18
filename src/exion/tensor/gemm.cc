#include "exion/tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <vector>

namespace exion
{

namespace
{

std::atomic<GemmBackend> g_default{GemmBackend::Reference};

/**
 * Blocking parameters, sized for the paper-scale workloads: a cohort
 * stack of N members x 8 tokens against 256x256 .. 1024x256 weight
 * panels. A packed j-panel of a K x N weight matrix occupies
 * K * kPanelCols floats (128 KiB at K = 256), which stays resident in
 * L2 while every stacked activation row sweeps it; the reference loop
 * instead drags the whole K x N matrix through the cache once per
 * activation row. Inside a panel the kernel table's gemmPanelF32
 * holds a tile of C (AVX-512 4x32, AVX2 4x16) in registers over the
 * whole k range, so C is stored once per element and each A row
 * block stays in L1 while it sweeps the panel.
 */
constexpr Index kPanelCols = 128;

/*
 * Both kernels of each pair below spell the per-element accumulation
 * as the same chain (c += a * b with k ascending from a +0.0f start,
 * every multiply and add rounded separately); gemm.cc and every
 * kernel TU are compiled with -ffp-contract=off, so no toolchain
 * fuses one side into FMA. Reassociating or splitting the k
 * reduction itself is not legal without -ffast-math, which this
 * project never enables.
 */

Matrix
referenceMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    const Index k_dim = a.cols();
    for (Index i = 0; i < a.rows(); ++i) {
        const float *arow = a.rowPtr(i);
        float *crow = c.rowPtr(i);
        for (Index k = 0; k < k_dim; ++k) {
            const float av = arow[k];
            const float *brow = b.rowPtr(k);
            for (Index j = 0; j < b.cols(); ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

/** Where a j-panel of the right operand lives: k rows, ld apart. */
struct PanelRef
{
    const float *data;
    Index ld;
};

/**
 * C (a.rows() x n) = A * P, one kPanelCols-wide j-panel at a time:
 * panel(j0, nb) returns columns [j0, j0+nb) of the right operand as
 * k rows of nb values, and the kernel table's gemmPanelF32 computes
 * that C block from them. A is read in place through its row stride,
 * so column-slice views cost no copy.
 */
template <typename Panel>
Matrix
panelMatmul(const Matrix &a, Index n, SimdTier simd, Panel panel)
{
    const SimdKernels &kr = simdKernels(simd);
    Matrix c(a.rows(), n);
    if (a.rows() == 0)
        return c;
    for (Index j0 = 0; j0 < n; j0 += kPanelCols) {
        const Index nb = std::min(kPanelCols, n - j0);
        const PanelRef p = panel(j0, nb);
        kr.gemmPanelF32(c.rowPtr(0) + j0, n, a.rowPtr(0), a.rowStride(),
                        p.data, p.ld, a.rows(), nb, a.cols());
    }
    return c;
}

Matrix
blockedMatmul(const Matrix &a, const Matrix &b, SimdTier simd)
{
    std::vector<float> packed;
    return panelMatmul(a, b.cols(), simd, [&](Index j0, Index nb) {
        // A B no wider than one panel is its own panel: the kernel
        // reads it in place through its row stride (the reduced
        // models' weights and tensor-parallel slices; packing them
        // first made those GEMMs 10-20% slower). Wider ones are
        // copied panel by panel, packed[k * nb + jj] = B(k, j0 + jj),
        // so the kernel's k walk stays inside one compact block.
        if (b.cols() <= kPanelCols)
            return PanelRef{b.rowPtr(0), b.rowStride()};
        packed.resize(b.rows() * nb);
        for (Index k = 0; k < b.rows(); ++k) {
            const float *brow = b.rowPtr(k) + j0;
            std::copy(brow, brow + nb, packed.data() + k * nb);
        }
        return PanelRef{packed.data(), nb};
    });
}

Matrix
referenceMatmulTransposed(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    const Index k_dim = a.cols();
    for (Index i = 0; i < a.rows(); ++i) {
        const float *arow = a.rowPtr(i);
        for (Index j = 0; j < b.rows(); ++j) {
            const float *brow = b.rowPtr(j);
            float acc = 0.0f;
            for (Index k = 0; k < k_dim; ++k)
                acc += arow[k] * brow[k];
            c(i, j) = acc;
        }
    }
    return c;
}

Matrix
blockedMatmulTransposed(const Matrix &a, const Matrix &b, SimdTier simd)
{
    // Fast tier: each output is a pure k reduction over two
    // contiguous rows — the reassociated dotF32 kernel's exact shape.
    if (simd == SimdTier::Fast) {
        const SimdKernels &kr = simdKernels(simd);
        Matrix c(a.rows(), b.rows());
        for (Index i = 0; i < a.rows(); ++i) {
            const float *arow = a.rowPtr(i);
            float *crow = c.rowPtr(i);
            for (Index j = 0; j < b.rows(); ++j)
                crow[j] = kr.dotF32(arow, b.rowPtr(j), a.cols());
        }
        return c;
    }
    // Rows [j0, j0+nb) of B transposed into the k x nb panel layout
    // blockedMatmul packs: packed[k * nb + jj] = B(j0 + jj, k).
    std::vector<float> packed;
    return panelMatmul(a, b.rows(), simd, [&](Index j0, Index nb) {
        packed.resize(b.cols() * nb);
        for (Index jj = 0; jj < nb; ++jj) {
            const float *brow = b.rowPtr(j0 + jj);
            for (Index k = 0; k < b.cols(); ++k)
                packed[k * nb + jj] = brow[k];
        }
        return PanelRef{packed.data(), nb};
    });
}

Matrix
referenceMatmulQuant(const QuantMatrix &a, const QuantMatrix &b)
{
    Matrix c(a.rows(), b.cols());
    const double out_scale = a.scale() * b.scale();
    for (Index i = 0; i < a.rows(); ++i) {
        for (Index j = 0; j < b.cols(); ++j) {
            i64 acc = 0;
            for (Index k = 0; k < a.cols(); ++k)
                acc += static_cast<i64>(a(i, k)) * b(k, j);
            c(i, j) = static_cast<float>(acc * out_scale);
        }
    }
    return c;
}

Matrix
blockedMatmulQuant(const QuantMatrix &a, const QuantMatrix &b,
                   SimdTier simd)
{
    const SimdKernels &kr = simdKernels(simd);
    Matrix c(a.rows(), b.cols());
    const double out_scale = a.scale() * b.scale();
    const Index m = a.rows();
    const Index k_dim = a.cols();
    const Index n = b.cols();
    // The reference walks B column-wise (stride n) in its inner loop.
    // Pack each j-panel of B transposed — packed[jj * k_dim + k] —
    // so both operands stream contiguously. Integer accumulation is
    // exact in any order; we keep k ascending anyway to match the
    // reference operation-for-operation.
    std::vector<i32> packed(std::min(kPanelCols, n) * k_dim);
    for (Index j0 = 0; j0 < n; j0 += kPanelCols) {
        const Index nb = std::min(kPanelCols, n - j0);
        for (Index k = 0; k < k_dim; ++k)
            for (Index jj = 0; jj < nb; ++jj)
                packed[jj * k_dim + k] = b(k, j0 + jj);
        for (Index i = 0; i < m; ++i) {
            const i32 *arow = a.rowPtr(i);
            float *crow = c.rowPtr(i) + j0;
            // One widening dot kernel per packed column (integer sums
            // are exact in any grouping, so this is legal in every
            // tier).
            for (Index jj = 0; jj < nb; ++jj)
                crow[jj] = static_cast<float>(
                    kr.dotI32(arow, packed.data() + jj * k_dim, k_dim)
                    * out_scale);
        }
    }
    return c;
}

} // namespace

GemmBackend
defaultGemmBackend()
{
    return g_default.load(std::memory_order_relaxed);
}

void
setDefaultGemmBackend(GemmBackend backend)
{
    g_default.store(backend, std::memory_order_relaxed);
}

const char *
gemmBackendName(GemmBackend backend)
{
    switch (backend) {
    case GemmBackend::Reference:
        return "reference";
    case GemmBackend::Blocked:
        return "blocked";
    }
    return "unknown";
}

std::optional<GemmBackend>
parseGemmBackend(const std::string &name)
{
    if (name == "reference")
        return GemmBackend::Reference;
    if (name == "blocked")
        return GemmBackend::Blocked;
    return std::nullopt;
}

Matrix
matmulWith(const Matrix &a, const Matrix &b, GemmBackend backend,
           SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.rows(), "matmul shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")");
    return backend == GemmBackend::Blocked ? blockedMatmul(a, b, simd)
                                           : referenceMatmul(a, b);
}

Matrix
matmulTransposedWith(const Matrix &a, const Matrix &b,
                     GemmBackend backend, SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.cols(), "matmulT shape (", a.rows(), "x",
                 a.cols(), ") * (", b.rows(), "x", b.cols(), ")^T");
    return backend == GemmBackend::Blocked
        ? blockedMatmulTransposed(a, b, simd)
        : referenceMatmulTransposed(a, b);
}

Matrix
matmulQuantWith(const QuantMatrix &a, const QuantMatrix &b,
                GemmBackend backend, SimdTier simd)
{
    EXION_ASSERT(a.cols() == b.rows(), "quant matmul shape mismatch");
    return backend == GemmBackend::Blocked
        ? blockedMatmulQuant(a, b, simd)
        : referenceMatmulQuant(a, b);
}

} // namespace exion
