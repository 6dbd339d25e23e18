/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the sparse hot paths.
 *
 * Every open-coded inner loop the profiles flagged — bitmask
 * popcount/compare words, FFN-Reuse threshold scans and masked
 * products, eager prediction's compare loops, the register-blocked
 * panel micro-kernel under every float Blocked GEMM — now calls a
 * *named kernel* out of a function table.
 * One table per instruction set
 * (kernels_{scalar,avx2,avx512,neon}.cc), probed once at runtime
 * (CPUID / compile-time ISA) and selected behind the scalar
 * reference, so the same binary runs the widest vectors the host
 * offers and plain scalar everywhere else.
 *
 * Two-tier numerics contract, threaded through executors and engine
 * options as SimdTier:
 *
 *  - Exact (default): kernels vectorize only across *independent
 *    output elements* (axpy j-sweeps, the GEMM panel kernel's
 *    register tiles with one output element per accumulator lane,
 *    per-lane compares, integer reductions — integer sums are exact
 *    in any order). Each float output element's accumulation chain
 *    stays in the golden reference order from ops.h (one
 *    accumulator, +0.0f start, ascending k, separate mul then add,
 *    no FMA), so the vector path is bit-identical to scalar *by
 *    construction* and the existing maxAbsDiff == 0 differential
 *    tests run with vector dispatch active.
 *  - Fast (opt-in): additionally reassociates float reductions
 *    (multi-accumulator dot products). Results differ from the golden
 *    chain by rounding only; gated by tolerance-based differential
 *    tests, never enabled by default.
 *
 * Forcing scalar: SimdTier::Scalar pins an engine to the scalar
 * table; the EXION_SIMD environment variable
 * (scalar|neon|avx2|avx512|auto) caps the *process-wide* detected
 * level before any table is handed out — the CI sanitizer matrix runs
 * a forced-scalar leg this way.
 */

#ifndef EXION_TENSOR_SIMD_DISPATCH_H_
#define EXION_TENSOR_SIMD_DISPATCH_H_

#include <optional>
#include <string>

#include "exion/common/types.h"

namespace exion
{

/** Instruction-set level of a kernel table. */
enum class SimdLevel
{
    Scalar, //!< portable reference kernels
    Neon,   //!< 128-bit ARM NEON
    Avx2,   //!< 256-bit x86 AVX2
    Avx512, //!< 512-bit x86 AVX-512F
};

/** Numerics tier an engine runs its kernels under (see file docs). */
enum class SimdTier
{
    Scalar, //!< force the scalar reference table (debugging)
    Exact,  //!< vector kernels, reference-order reductions (default)
    Fast,   //!< + reassociated float reductions (tolerance-gated)
};

/**
 * The kernel function table. One instance per instruction set; all
 * entries are always populated (a level that has no specialised
 * implementation of an entry points it at the scalar reference).
 *
 * Exactness notes per entry are the contract vector implementations
 * must satisfy; test_simd.cc enforces them against the scalar table
 * on adversarial inputs (NaN/Inf payloads, ragged tails).
 */
struct SimdKernels
{
    /** Level name for logs/bench output. */
    const char *name;

    /**
     * out[j] += a * x[j] for j in [0, n). Exact: per element one
     * rounded multiply then one rounded add, independent across j.
     * Caveat shared by every float kernel: when an addition's two
     * operands are BOTH NaN, the propagated payload is unspecified
     * (IEEE 754 leaves the choice to the implementation and
     * hardware takes the first operand's payload, whose position
     * the compiler picks) — NaN-ness itself is always identical.
     */
    void (*axpyF32)(float *out, const float *x, float a, Index n);

    /**
     * C block from a k x n block of B: for i in [0, m), j in [0, n),
     *   c[i*ldc + j] = sum_{kk < k} a[i*lda + kk] * b[kk*ldb + j]
     * overwriting C. Exact: every element is the golden chain — a
     * +0.0f accumulator, kk ascending, one rounded multiply then one
     * rounded add per term, no FMA. The vector tables hold a 4-row
     * tile of accumulators in registers over the whole k range
     * (AVX-512 4x32, AVX2 4x16) with masked column tails and a
     * 1..3-row tail; scalar and NEON sweep one C row at a time. This
     * is the micro-kernel under every float Blocked GEMM (gemm.h),
     * which hands it packed panels of B (ldb == n) or a narrow B in
     * place.
     */
    void (*gemmPanelF32)(float *c, Index ldc, const float *a,
                         Index lda, const float *b, Index ldb, Index m,
                         Index n, Index k);

    /**
     * sum_k a[k] * b[k] with reassociated accumulation. Fast tier
     * only — lane partial sums round differently from the golden
     * serial chain.
     */
    float (*dotF32)(const float *a, const float *b, Index n);

    /**
     * sum_k (i64)a[k] * b[k]. Integer: exact in any order, legal in
     * the Exact tier.
     */
    i64 (*dotI32)(const i32 *a, const i32 *b, Index n);

    /**
     * Bit i of the result is set iff |x[i]| > theta, for i in
     * [0, n), n <= 64. Matches std::abs(x[i]) > theta exactly:
     * ordered compare, so NaN payloads yield 0 bits; -Inf compares
     * as +Inf.
     */
    u64 (*absGreaterMask64)(const float *x, float theta, Index n);

    /**
     * Bit i set iff x[i] >= threshold, i in [0, n), n <= 64.
     * Ordered compare (NaN anywhere yields 0 for that lane).
     */
    u64 (*cmpGeMask64)(const float *x, float threshold, Index n);

    /** Total set bits across n words. */
    u64 (*popcountWords)(const u64 *w, Index n);

    /** Total set bits of a[i] & b[i] across n words. */
    u64 (*andPopcountWords)(const u64 *a, const u64 *b, Index n);

    /** dst[i] |= src[i] for n words. */
    void (*orWords)(u64 *dst, const u64 *src, Index n);
};

/**
 * The process-wide active level: the highest level this build carries
 * kernels for that the CPU supports, capped by EXION_SIMD. Probed
 * once on first use, constant afterwards.
 */
SimdLevel activeSimdLevel();

/** Kernel table of the active level. */
const SimdKernels &activeKernels();

/**
 * Table for a tier: the scalar reference table under
 * SimdTier::Scalar, the active level's table otherwise. (Exact vs
 * Fast select the same table — the tier difference is which entries
 * a call site is allowed to use.)
 */
const SimdKernels &simdKernels(SimdTier tier);

/**
 * Process-wide default tier consulted by defaulted parameters across
 * the tensor/model/sparsity layers, mirroring defaultGemmBackend().
 * Starts as Exact. Thread-safe (atomic).
 */
SimdTier defaultSimdTier();

/** Sets the process-wide default tier. Thread-safe (atomic). */
void setDefaultSimdTier(SimdTier tier);

/** Lower-case tier name ("scalar" / "exact" / "fast"). */
const char *simdTierName(SimdTier tier);

/** Parses a tier name; nullopt for anything unrecognised. */
std::optional<SimdTier> parseSimdTier(const std::string &name);

/** Lower-case level name ("scalar" / "neon" / "avx2" / "avx512"). */
const char *simdLevelName(SimdLevel level);

/**
 * Parses an EXION_SIMD cap value. "scalar"/"neon"/"avx2"/"avx512"
 * yield that level; "auto", empty or unrecognised values yield
 * nullopt (no cap). Pure — exposed for tests; activeSimdLevel()
 * applies it to the probed level once.
 */
std::optional<SimdLevel> parseSimdLevel(const std::string &name);

namespace simd
{

/*
 * Per-ISA tables. Levels this build has no kernels for (wrong
 * architecture) return nullptr and are skipped by the probe. The
 * scalar reference kernels are also exported individually so wider
 * tables can point unspecialised entries — and their own ragged
 * tails — at the golden chains.
 */

const SimdKernels &scalarTable();
const SimdKernels *avx2Table();
const SimdKernels *avx512Table();
const SimdKernels *neonTable();

void axpyF32Scalar(float *out, const float *x, float a, Index n);
void gemmPanelF32Scalar(float *c, Index ldc, const float *a, Index lda,
                        const float *b, Index ldb, Index m, Index n,
                        Index k);
float dotF32Scalar(const float *a, const float *b, Index n);
i64 dotI32Scalar(const i32 *a, const i32 *b, Index n);
u64 absGreaterMask64Scalar(const float *x, float theta, Index n);
u64 cmpGeMask64Scalar(const float *x, float threshold, Index n);
u64 popcountWordsScalar(const u64 *w, Index n);
u64 andPopcountWordsScalar(const u64 *a, const u64 *b, Index n);
void orWordsScalar(u64 *dst, const u64 *src, Index n);

} // namespace simd

} // namespace exion

#endif // EXION_TENSOR_SIMD_DISPATCH_H_
