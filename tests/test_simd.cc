/**
 * @file
 * SIMD kernel layer tests.
 *
 * Every vector table this build carries is held against the scalar
 * reference table on adversarial inputs: NaN/Inf payloads, signed
 * zeros, lengths that are not a multiple of any vector width, and
 * mask words with ragged tails. Exact-contract entries (axpy, the
 * float and integer GEMM panel kernels, the gathered-row sum,
 * compares, integer reductions) must be bit-identical; dotF32 — the
 * Fast tier's reassociated reduction — is tolerance-checked. The
 * log-domain GEMM, an integer GEMM of images over the panel kernel,
 * is checked exhaustively against an ldProduct triple loop over the
 * full INT12 operand range. On top of the kernels, the
 * tier plumbing (parse round-trips, table selection, process
 * default) and the Bitmask2D word-level API (words(), andPopcount,
 * writeRowBits, forEachSetBit*) are covered, the latter on 63/64/65
 * column shapes so every word-boundary case is exercised.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exion/common/bitops.h"
#include "exion/common/rng.h"
#include "exion/sparsity/log_domain.h"
#include "exion/tensor/bitmask.h"
#include "exion/tensor/gemm.h"
#include "exion/tensor/simd_dispatch.h"

namespace exion
{
namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/** Every vector table compiled into this build, with its name. */
std::vector<const SimdKernels *>
vectorTables()
{
    std::vector<const SimdKernels *> tables;
    if (simd::avx2Table())
        tables.push_back(simd::avx2Table());
    if (simd::avx512Table())
        tables.push_back(simd::avx512Table());
    if (simd::neonTable())
        tables.push_back(simd::neonTable());
    return tables;
}

/**
 * Lengths chosen so no vector width (4/8/16 lanes) divides them all:
 * empty, sub-width, exact widths, width+1, and multi-word sizes.
 */
const Index kLengths[] = {0,  1,  3,  4,  5,  7,  8,  9,  15, 16,
                          17, 31, 32, 33, 63, 64, 65, 100, 130};

/** Floats with NaN/Inf/signed-zero payloads sprinkled in. */
std::vector<float>
adversarialFloats(Index n, Rng &rng)
{
    std::vector<float> v(n);
    for (Index i = 0; i < n; ++i) {
        const double u = rng.uniform();
        if (u < 0.05)
            v[i] = kNan;
        else if (u < 0.10)
            v[i] = rng.uniform() < 0.5 ? kInf : -kInf;
        else if (u < 0.20)
            v[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f;
        else
            v[i] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
    }
    return v;
}

/**
 * Per-element bitwise equality, except positions where both sides
 * are NaN. Whether a value is NaN must always agree (the mul/add
 * semantics are lane-identical), but when an addition's accumulator
 * AND term are both NaN, IEEE 754 leaves the propagated payload
 * unspecified — hardware returns the first operand's payload, and
 * the compiler orders the scalar C chain's operands differently at
 * different optimisation levels — so payloads are only compared
 * when at most one side of the chain went NaN.
 */
bool
bitsEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        unsigned ab, bb;
        std::memcpy(&ab, &a[i], sizeof ab);
        std::memcpy(&bb, &b[i], sizeof bb);
        if (ab != bb)
            return false;
    }
    return true;
}

/** Bitwise matrix equality (NaN-tolerant). */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && (a.size() == 0
            || std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0);
}

// ------------------------------------------------------------ plumbing

TEST(SimdDispatchTest, TierNameParseRoundTrip)
{
    for (SimdTier t :
         {SimdTier::Scalar, SimdTier::Exact, SimdTier::Fast}) {
        const auto parsed = parseSimdTier(simdTierName(t));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, t);
    }
    EXPECT_FALSE(parseSimdTier("").has_value());
    EXPECT_FALSE(parseSimdTier("vector").has_value());
    EXPECT_FALSE(parseSimdTier("Exact").has_value());
}

TEST(SimdDispatchTest, LevelNameParseRoundTrip)
{
    for (SimdLevel l : {SimdLevel::Scalar, SimdLevel::Neon,
                        SimdLevel::Avx2, SimdLevel::Avx512}) {
        const auto parsed = parseSimdLevel(simdLevelName(l));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, l);
    }
    // "auto", empty and junk all mean "no cap".
    EXPECT_FALSE(parseSimdLevel("auto").has_value());
    EXPECT_FALSE(parseSimdLevel("").has_value());
    EXPECT_FALSE(parseSimdLevel("sse9").has_value());
}

TEST(SimdDispatchTest, TierSelectsTable)
{
    // Scalar pins the reference table; Exact and Fast share the
    // active one (the tier difference is which entries callers may
    // use, not which table they get).
    EXPECT_EQ(&simdKernels(SimdTier::Scalar), &simd::scalarTable());
    EXPECT_EQ(&simdKernels(SimdTier::Exact), &activeKernels());
    EXPECT_EQ(&simdKernels(SimdTier::Fast), &activeKernels());
}

TEST(SimdDispatchTest, DefaultTierRoundTrip)
{
    const SimdTier before = defaultSimdTier();
    setDefaultSimdTier(SimdTier::Fast);
    EXPECT_EQ(defaultSimdTier(), SimdTier::Fast);
    setDefaultSimdTier(before);
    EXPECT_EQ(defaultSimdTier(), before);
}

TEST(SimdDispatchTest, TablesArePopulated)
{
    std::vector<const SimdKernels *> all = vectorTables();
    all.push_back(&simd::scalarTable());
    all.push_back(&activeKernels());
    for (const SimdKernels *t : all) {
        EXPECT_NE(t->name, nullptr);
        EXPECT_NE(t->axpyF32, nullptr);
        EXPECT_NE(t->gemmPanelF32, nullptr);
        EXPECT_NE(t->gemmPanelI32, nullptr);
        EXPECT_NE(t->dequantizeI64F32, nullptr);
        EXPECT_NE(t->weightedRowSumF32, nullptr);
        EXPECT_NE(t->dotF32, nullptr);
        EXPECT_NE(t->dotI32, nullptr);
        EXPECT_NE(t->absGreaterMask64, nullptr);
        EXPECT_NE(t->cmpGeMask64, nullptr);
        EXPECT_NE(t->popcountWords, nullptr);
        EXPECT_NE(t->andPopcountWords, nullptr);
        EXPECT_NE(t->orWords, nullptr);
    }
}

// ---------------------------------------------- float kernels (Exact)

TEST(SimdKernelTest, AxpyBitIdenticalToScalar)
{
    Rng rng(11);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : kLengths) {
            const std::vector<float> x = adversarialFloats(n, rng);
            for (float a : {1.5f, 0.0f, -0.0f, kInf, kNan}) {
                std::vector<float> ref = adversarialFloats(n, rng);
                std::vector<float> got = ref;
                simd::axpyF32Scalar(ref.data(), x.data(), a, n);
                table->axpyF32(got.data(), x.data(), a, n);
                EXPECT_TRUE(bitsEqual(ref, got))
                    << table->name << " n=" << n << " a=" << a;
            }
        }
    }
}

/**
 * The GEMM panel kernel against the scalar row sweep: every row
 * count through the 4-row tiles and their 1..3-row tails, column
 * counts on both sides of every vector and tile width, k from empty
 * to many terms, and operand/output strides wider than the block so
 * a kernel that ignores one reads or writes the wrong elements. The
 * padding past each row's width holds NaN, +-Inf and -0, so a tail
 * lane that leaks into a live element (or is stored) shows up; C's
 * padding must come back untouched.
 */
TEST(SimdKernelTest, GemmPanelBitIdenticalToScalar)
{
    const Index kCols[] = {1, 8, 15, 16, 17, 31, 32, 33, 47, 128, 129};
    const Index kDepths[] = {0, 1, 3, 64};
    const float kPad[] = {kNan, kInf, -kInf, -0.0f};
    Rng rng(12);
    /** rows x width values at row stride ld, padding poisoned. */
    const auto strided = [&](Index rows, Index width, Index ld) {
        std::vector<float> v = adversarialFloats(rows * ld, rng);
        for (Index r = 0; r < rows; ++r)
            for (Index j = width; j < ld; ++j)
                v[r * ld + j] = kPad[(r + j) % 4];
        return v;
    };
    for (const SimdKernels *table : vectorTables()) {
        for (Index m = 0; m <= 9; ++m) {
            for (Index n : kCols) {
                for (Index k : kDepths) {
                    const Index lda = k + 3;
                    const Index ldb = n + 5;
                    const Index ldc = n + 7;
                    const std::vector<float> a = strided(m, k, lda);
                    const std::vector<float> b = strided(k, n, ldb);
                    std::vector<float> ref = strided(m, n, ldc);
                    std::vector<float> got = ref;
                    simd::gemmPanelF32Scalar(ref.data(), ldc, a.data(),
                                             lda, b.data(), ldb, m, n,
                                             k);
                    table->gemmPanelF32(got.data(), ldc, a.data(), lda,
                                        b.data(), ldb, m, n, k);
                    EXPECT_TRUE(bitsEqual(ref, got))
                        << table->name << " m=" << m << " n=" << n
                        << " k=" << k;
                }
            }
        }
    }
}

/**
 * The gathered-row sum against the scalar chain: widths on both sides
 * of every vector and block width (AVX2 32, AVX-512 64 columns), no
 * rows to many (repeats included), V rows at a padded stride whose
 * padding is poisoned, adversarial values and weights. out's slots
 * past n must come back untouched.
 */
TEST(SimdKernelTest, WeightedRowSumBitIdenticalToScalar)
{
    const Index kWidths[] = {1, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32,
                             33, 63, 64, 65, 100, 130};
    const Index kCounts[] = {0, 1, 2, 5, 37};
    constexpr Index kVRows = 40;
    Rng rng(16);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : kWidths) {
            const Index ldv = n + 5;
            std::vector<float> v = adversarialFloats(kVRows * ldv, rng);
            for (Index r = 0; r < kVRows; ++r)
                for (Index j = n; j < ldv; ++j)
                    v[r * ldv + j] = (r + j) % 2 ? kNan : kInf;
            for (Index count : kCounts) {
                std::vector<Index> rows(count);
                for (Index &r : rows)
                    r = rng.uniformInt(kVRows);
                std::vector<float> w = adversarialFloats(count, rng);
                std::vector<float> ref = adversarialFloats(n + 3, rng);
                std::vector<float> got = ref;
                simd::weightedRowSumF32Scalar(ref.data(), v.data(), ldv,
                                              rows.data(), w.data(),
                                              count, n);
                table->weightedRowSumF32(got.data(), v.data(), ldv,
                                         rows.data(), w.data(), count,
                                         n);
                EXPECT_TRUE(bitsEqual(ref, got))
                    << table->name << " n=" << n << " count=" << count;
            }
        }
    }
}

TEST(SimdKernelTest, DotF32WithinTolerance)
{
    // dotF32 is the Fast tier's reassociated reduction: not
    // bit-identical to the serial chain, but within reassociation
    // rounding of it on finite inputs.
    Rng rng(13);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : kLengths) {
            std::vector<float> a(n), b(n);
            double magnitude = 0.0;
            for (Index i = 0; i < n; ++i) {
                a[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
                b[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
                magnitude += std::abs(static_cast<double>(a[i])
                                      * static_cast<double>(b[i]));
            }
            const float ref = simd::dotF32Scalar(a.data(), b.data(), n);
            const float got = table->dotF32(a.data(), b.data(), n);
            EXPECT_NEAR(ref, got, 1e-5 * (1.0 + magnitude))
                << table->name << " n=" << n;
        }
    }
}

// -------------------------------------------------- integer reductions

TEST(SimdKernelTest, DotI32Exact)
{
    Rng rng(14);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : kLengths) {
            std::vector<i32> a(n), b(n);
            for (Index i = 0; i < n; ++i) {
                // Full INT12 range plus the extremes' products.
                a[i] = static_cast<i32>(rng.uniform() * 4095.0) - 2047;
                b[i] = static_cast<i32>(rng.uniform() * 4095.0) - 2047;
            }
            EXPECT_EQ(simd::dotI32Scalar(a.data(), b.data(), n),
                      table->dotI32(a.data(), b.data(), n))
                << table->name << " n=" << n;
        }
    }
}

/** i32 run length of two operands at most `bits` wide, as gemm.cc
    derives it from their IntWidths. */
Index
runLength(int bits_a, int bits_b)
{
    const i64 max_a = i64{1} << (bits_a - 1);
    const i64 max_b = i64{1} << (bits_b - 1);
    return static_cast<Index>(i64{std::numeric_limits<i32>::max()}
                              / (max_a * max_b));
}

/** c = a * b as a plain i64 triple loop (row strides lda/ldb/ldc). */
void
naiveGemmI64(std::vector<i64> &c, Index ldc, const std::vector<i32> &a,
             Index lda, const std::vector<i32> &b, Index ldb, Index m,
             Index n, Index k)
{
    for (Index i = 0; i < m; ++i)
        for (Index j = 0; j < n; ++j) {
            i64 sum = 0;
            for (Index kk = 0; kk < k; ++kk)
                sum += static_cast<i64>(a[i * lda + kk]) * b[kk * ldb + j];
            c[i * ldc + j] = sum;
        }
}

/** Signed TS-LOD image of v (what ldImage stores). */
i32
tsImage(i32 v)
{
    const u32 mag = static_cast<u32>(std::abs(static_cast<i64>(v)));
    const i32 img = static_cast<i32>(tsLodValue(mag));
    return v < 0 ? -img : img;
}

/**
 * The integer panel kernel: the scalar entry against a naive i64
 * triple loop, every vector table against the scalar entry. Shapes
 * cover the 4-row tiles and their 1..3-row tails, column counts on
 * both sides of every vector and tile width, k from empty to past
 * one i32 run, and operand/output strides wider than the block. The
 * operands' padding holds values that would overflow the run if
 * read, and C's padding a sentinel that must come back untouched.
 * Operands are INT12 values, INT16-width TS-LOD images (run length 1
 * against each other, 31 against INT12), and the range ends.
 */
TEST(SimdKernelTest, GemmPanelI32MatchesNaiveAndScalar)
{
    const Index kCols[] = {1, 8, 15, 16, 17, 31, 32, 33, 47, 128, 129};
    const Index kDepths[] = {0, 1, 3, 64, 70};
    constexpr i64 kSentinel = 0x5a5a5a5a5a5a5a5aLL;
    constexpr i32 kPoison = std::numeric_limits<i32>::max();
    Rng rng(18);
    /** One operand value of a `bits`-wide domain (images at 16). */
    const auto value = [&](int bits) {
        const i32 top = i32{1} << (bits - 1);
        const double u = rng.uniform();
        if (u < 0.05)
            return -top;
        if (u < 0.10)
            return top - 1;
        if (u < 0.15)
            return 0;
        const i32 v = static_cast<i32>(rng.uniformInt(2 * top)) - top;
        return bits == 16 ? tsImage(v) : v;
    };
    const auto strided = [&](Index rows, Index width, Index ld,
                             int bits) {
        std::vector<i32> v(rows * ld, kPoison);
        for (Index r = 0; r < rows; ++r)
            for (Index j = 0; j < width; ++j)
                v[r * ld + j] = value(bits);
        return v;
    };
    const std::pair<int, int> kWidths[] = {{12, 12}, {12, 16}, {16, 16}};
    std::vector<const SimdKernels *> tables = vectorTables();
    tables.insert(tables.begin(), &simd::scalarTable());
    for (const auto &[bits_a, bits_b] : kWidths) {
        const Index chunk = runLength(bits_a, bits_b);
        for (Index m = 0; m <= 9; ++m) {
            for (Index n : kCols) {
                for (Index k : kDepths) {
                    const Index lda = k + 3;
                    const Index ldb = n + 5;
                    const Index ldc = n + 7;
                    const std::vector<i32> a = strided(m, k, lda, bits_a);
                    const std::vector<i32> b = strided(k, n, ldb, bits_b);
                    std::vector<i64> want(m * ldc, kSentinel);
                    naiveGemmI64(want, ldc, a, lda, b, ldb, m, n, k);
                    for (const SimdKernels *table : tables) {
                        std::vector<i64> got(m * ldc, kSentinel);
                        table->gemmPanelI32(got.data(), ldc, a.data(), lda,
                                            b.data(), ldb, m, n, k,
                                            chunk);
                        EXPECT_EQ(want, got)
                            << table->name << " bits=" << bits_a << "x"
                            << bits_b << " m=" << m << " n=" << n
                            << " k=" << k;
                    }
                }
            }
        }
    }
}

TEST(SimdKernelTest, DequantizeI64MatchesScalar)
{
    // Accumulators across the whole i64 range — the ends, both sides
    // of 2^53 (where the double conversion starts rounding, ties
    // included) and of every 32-bit split point — against scales
    // that keep the product finite, overflow float, underflow it,
    // flip its sign, or are not numbers.
    std::vector<i64> acc = {0,
                            1,
                            -1,
                            std::numeric_limits<i64>::max(),
                            std::numeric_limits<i64>::min(),
                            (i64{1} << 53) + 1,
                            (i64{1} << 53) + 3,
                            -((i64{1} << 53) + 1),
                            (i64{1} << 32) - 1,
                            i64{1} << 32,
                            -(i64{1} << 32),
                            (i64{1} << 31) - 1,
                            -(i64{1} << 31),
                            (i64{1} << 62) + 12345};
    Rng rng(19);
    for (int i = 0; i < 200; ++i) {
        const int bits = static_cast<int>(rng.uniformInt(63));
        const i64 mag = static_cast<i64>(
            rng.uniformInt(u64{1} << bits) | (u64{1} << bits));
        acc.push_back(rng.uniform() < 0.5 ? -mag : mag);
    }
    const double kScales[] = {1.0, 0.000123, -3.5e-7, 1e30, 1e-60,
                              kInf, std::nan("")};
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : {acc.size(), Index{0}, Index{1}, Index{3},
                        Index{7}, Index{9}}) {
            for (double scale : kScales) {
                std::vector<float> ref(n + 2, -1.0f);
                std::vector<float> got = ref;
                simd::dequantizeI64F32Scalar(ref.data(), acc.data(),
                                             scale, n);
                table->dequantizeI64F32(got.data(), acc.data(), scale, n);
                EXPECT_TRUE(bitsEqual(ref, got))
                    << table->name << " n=" << n << " scale=" << scale;
            }
        }
    }
}

TEST(SimdKernelTest, GemmPanelI32ExtremesAroundRunLength)
{
    // Every product at the INT12 extreme 2048 * 2048 = 2^22: a run of
    // 511 such terms is the longest that fits in i32, 512 would wrap.
    // k one below, at and above the run length (and two runs plus
    // one), with both signs of the product, must all sum exactly.
    const Index chunk = runLength(12, 12);
    ASSERT_EQ(chunk, 511u);
    std::vector<const SimdKernels *> tables = vectorTables();
    tables.insert(tables.begin(), &simd::scalarTable());
    for (Index k : {chunk - 1, chunk, chunk + 1, 2 * chunk + 1}) {
        for (i32 sign : {1, -1}) {
            const Index m = 5;
            const Index n = 19;
            const std::vector<i32> a(m * k, -2048);
            const std::vector<i32> b(k * n, sign * -2048);
            const i64 want = sign * static_cast<i64>(k) * (i64{1} << 22);
            for (const SimdKernels *table : tables) {
                std::vector<i64> got(m * n, 0);
                table->gemmPanelI32(got.data(), n, a.data(), k, b.data(),
                                    n, m, n, k, chunk);
                for (Index i = 0; i < got.size(); ++i)
                    ASSERT_EQ(got[i], want)
                        << table->name << " k=" << k << " sign=" << sign
                        << " i=" << i;
            }
            // And through both GEMM backends at every tier: the
            // scale 0.5 * 0.5 keeps every dequantised sum exact.
            QuantParams p{0.5, IntWidth::Int12};
            QuantMatrix qa(m, k, p), qb(k, n, p);
            for (Index i = 0; i < m; ++i)
                for (Index j = 0; j < k; ++j)
                    qa.at(i, j) = -2048;
            for (Index i = 0; i < k; ++i)
                for (Index j = 0; j < n; ++j)
                    qb.at(i, j) = sign * -2048;
            for (GemmBackend backend :
                 {GemmBackend::Reference, GemmBackend::Blocked})
                for (SimdTier tier : {SimdTier::Scalar, SimdTier::Exact}) {
                    const Matrix c = matmulQuantWith(qa, qb, backend, tier);
                    ASSERT_EQ(c.size(), m * n);
                    for (float v : c.data())
                        ASSERT_EQ(v, static_cast<float>(want) * 0.25f)
                            << gemmBackendName(backend) << " "
                            << simdTierName(tier);
                }
        }
    }
}

/**
 * Naive log-domain oracle: C = A * B (B^T when transposed) as an
 * ldProduct triple loop in i64, dequantised exactly as ldMatmul
 * documents.
 */
Matrix
ldOracle(const QuantMatrix &a, const QuantMatrix &b, LodMode mode,
         bool transposed)
{
    const Index n = transposed ? b.rows() : b.cols();
    const double scale = a.scale() * b.scale();
    Matrix c(a.rows(), n);
    for (Index i = 0; i < a.rows(); ++i)
        for (Index j = 0; j < n; ++j) {
            i64 sum = 0;
            for (Index k = 0; k < a.cols(); ++k)
                sum += ldProduct(a(i, k),
                                 transposed ? b(j, k) : b(k, j), mode);
            c(i, j) = static_cast<float>(sum * scale);
        }
    return c;
}

/** QuantMatrix over explicit values (row-major) with a given scale. */
QuantMatrix
quantOf(const std::vector<i32> &v, Index rows, Index cols, double scale)
{
    QuantMatrix q(rows, cols, QuantParams{scale, IntWidth::Int12});
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            q.at(r, c) = v[r * cols + c];
    return q;
}

/** ldMatmul and ldMatmulTransposed both byte-equal to the oracle. */
void
expectLdMatmulMatchesOracle(const QuantMatrix &a, const QuantMatrix &b,
                            const QuantMatrix &bt, LodMode mode)
{
    const Matrix want = ldOracle(a, b, mode, false);
    EXPECT_TRUE(bitIdentical(want, ldMatmul(a, b, mode)));
    EXPECT_TRUE(bitIdentical(want, ldOracle(a, bt, mode, true)));
    EXPECT_TRUE(bitIdentical(want, ldMatmulTransposed(a, bt, mode)));
}

TEST(SimdKernelTest, LdDotExhaustiveInt12)
{
    // Every INT12 value (-2048 included) against a stride-13 sweep of
    // the same range plus 0, both LOD depths, through the image GEMM.
    // k = 1 isolates each pair's product; k = 4096 then sums every
    // value's product in one chain per output column.
    std::vector<i32> all;
    for (i32 v = -2048; v <= 2047; ++v)
        all.push_back(v);
    std::vector<i32> bs = {0};
    for (i32 v = -2048; v <= 2047; v += 13)
        bs.push_back(v);
    ASSERT_EQ(bs.back(), 2047);
    const Index na = all.size(), nb = bs.size();

    std::vector<i32> rep(na * nb), rep_t(nb * na);
    for (Index k = 0; k < na; ++k)
        for (Index j = 0; j < nb; ++j) {
            rep[k * nb + j] = bs[j];
            rep_t[j * na + k] = bs[j];
        }
    for (LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        SCOPED_TRACE(mode == LodMode::Single ? "single" : "two-step");
        // Pairwise: A is 4096 x 1, B is 1 x nb.
        expectLdMatmulMatchesOracle(quantOf(all, na, 1, 0.5),
                                    quantOf(bs, 1, nb, 0.25),
                                    quantOf(bs, nb, 1, 0.25), mode);
        // Whole-range chains: A is 1 x 4096, column j of B holds b_j.
        expectLdMatmulMatchesOracle(quantOf(all, 1, na, 1e-3),
                                    quantOf(rep, na, nb, 3e-2),
                                    quantOf(rep_t, nb, na, 3e-2), mode);
    }
}

TEST(SimdKernelTest, LdDotRaggedTails)
{
    // k and n around every vector width (and EP's dh = 12 and 48),
    // random INT12 operands with the range ends sprinkled in.
    const Index kDims[] = {1, 12, 15, 16, 17, 48};
    Rng rng(15);
    auto operand = [&](Index rows, Index cols) {
        std::vector<i32> v(rows * cols);
        for (i32 &x : v) {
            const double u = rng.uniform();
            if (u < 0.05)
                x = -2048;
            else if (u < 0.10)
                x = 2047;
            else if (u < 0.15)
                x = 0;
            else
                x = static_cast<i32>(rng.uniformInt(4096)) - 2048;
        }
        return v;
    };
    for (Index k : kDims)
        for (Index n : kDims) {
            const Index m = 5;
            const QuantMatrix a = quantOf(operand(m, k), m, k, 0.01);
            const std::vector<i32> bv = operand(k, n);
            std::vector<i32> btv(n * k);
            for (Index r = 0; r < k; ++r)
                for (Index c = 0; c < n; ++c)
                    btv[c * k + r] = bv[r * n + c];
            for (LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
                SCOPED_TRACE("k=" + std::to_string(k)
                             + " n=" + std::to_string(n));
                expectLdMatmulMatchesOracle(a, quantOf(bv, k, n, 0.02),
                                            quantOf(btv, n, k, 0.02),
                                            mode);
            }
        }
}

// -------------------------------------------------------- mask kernels

TEST(SimdKernelTest, AbsGreaterMaskMatchesScalar)
{
    Rng rng(16);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n = 1; n <= 64; ++n) {
            std::vector<float> x = adversarialFloats(n, rng);
            // Plant exact-theta values: |x| > theta must be strict.
            const float theta = 0.75f;
            if (n > 2) {
                x[0] = theta;
                x[1] = -theta;
            }
            u64 want = 0;
            for (Index i = 0; i < n; ++i)
                if (std::abs(x[i]) > theta)
                    want |= u64{1} << i;
            EXPECT_EQ(want,
                      simd::absGreaterMask64Scalar(x.data(), theta, n))
                << "n=" << n;
            EXPECT_EQ(want, table->absGreaterMask64(x.data(), theta, n))
                << table->name << " n=" << n;
        }
    }
}

TEST(SimdKernelTest, CmpGeMaskMatchesScalar)
{
    Rng rng(17);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n = 1; n <= 64; ++n) {
            std::vector<float> x = adversarialFloats(n, rng);
            const float threshold = -0.25f;
            if (n > 2) {
                x[0] = threshold; // ties keep (>=)
                x[1] = kNan;      // ordered compare: NaN drops
            }
            u64 want = 0;
            for (Index i = 0; i < n; ++i)
                if (x[i] >= threshold)
                    want |= u64{1} << i;
            EXPECT_EQ(want,
                      simd::cmpGeMask64Scalar(x.data(), threshold, n))
                << "n=" << n;
            EXPECT_EQ(want, table->cmpGeMask64(x.data(), threshold, n))
                << table->name << " n=" << n;
        }
    }
}

TEST(SimdKernelTest, MaskKernelsIgnoreBitsPastN)
{
    // A payload past the tail that would match must not leak into
    // the result word.
    std::vector<float> x(64, 1000.0f);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : {Index{1}, Index{7}, Index{31}, Index{63}}) {
            const u64 want = n >= 64 ? ~u64{0} : (u64{1} << n) - 1;
            EXPECT_EQ(want, table->absGreaterMask64(x.data(), 0.5f, n))
                << table->name << " n=" << n;
            EXPECT_EQ(want, table->cmpGeMask64(x.data(), 0.5f, n))
                << table->name << " n=" << n;
        }
    }
}

// -------------------------------------------------------- word kernels

TEST(SimdKernelTest, WordKernelsMatchScalar)
{
    Rng rng(18);
    for (const SimdKernels *table : vectorTables()) {
        for (Index n : {Index{0}, Index{1}, Index{2}, Index{3},
                        Index{7}, Index{8}, Index{9}, Index{33}}) {
            std::vector<u64> a(n), b(n);
            for (Index i = 0; i < n; ++i) {
                a[i] = rng.next();
                b[i] = rng.next();
            }
            if (n > 1) {
                a[0] = 0;
                b[n - 1] = ~u64{0};
            }
            EXPECT_EQ(simd::popcountWordsScalar(a.data(), n),
                      table->popcountWords(a.data(), n))
                << table->name << " n=" << n;
            EXPECT_EQ(
                simd::andPopcountWordsScalar(a.data(), b.data(), n),
                table->andPopcountWords(a.data(), b.data(), n))
                << table->name << " n=" << n;
            std::vector<u64> ref = a, got = a;
            simd::orWordsScalar(ref.data(), b.data(), n);
            table->orWords(got.data(), b.data(), n);
            EXPECT_EQ(ref, got) << table->name << " n=" << n;
        }
    }
}

// ------------------------------------------------- bitmask word-level

/** Shapes whose rows land before/on/after every word boundary. */
const Index kRaggedCols[] = {63, 64, 65};

TEST(BitmaskWordApiTest, WordsSpanAndPaddingInvariant)
{
    Rng rng(19);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(3, cols);
        EXPECT_EQ(m.wordCount(), (3 * cols + 63) / 64);
        EXPECT_EQ(m.words().size(), m.wordCount());
        for (Index r = 0; r < 3; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.5);
        // Bits past rows*cols in the final word stay zero, so
        // word-level consumers never see garbage.
        const Index used = 3 * cols;
        if (used % 64 != 0) {
            const u64 tail = m.words()[m.wordCount() - 1];
            EXPECT_EQ(tail >> (used % 64), 0u) << "cols=" << cols;
        }
    }
}

TEST(BitmaskWordApiTest, CountOnesRaggedTails)
{
    Rng rng(20);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        u64 want = 0;
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c) {
                const bool v = rng.uniform() < 0.4;
                m.set(r, c, v);
                want += v;
            }
        EXPECT_EQ(m.countOnes(), want) << "cols=" << cols;
        for (Index r = 0; r < 5; ++r) {
            u64 row_want = 0;
            for (Index c = 0; c < cols; ++c)
                row_want += m.get(r, c);
            EXPECT_EQ(m.rowOnes(r), row_want)
                << "cols=" << cols << " r=" << r;
        }
    }
}

TEST(BitmaskWordApiTest, AndPopcountRaggedTails)
{
    Rng rng(21);
    for (Index cols : kRaggedCols) {
        Bitmask2D a(4, cols), b(4, cols);
        u64 want = 0;
        for (Index r = 0; r < 4; ++r)
            for (Index c = 0; c < cols; ++c) {
                const bool av = rng.uniform() < 0.5;
                const bool bv = rng.uniform() < 0.5;
                a.set(r, c, av);
                b.set(r, c, bv);
                want += av && bv;
            }
        EXPECT_EQ(a.andPopcount(b), want) << "cols=" << cols;
        EXPECT_EQ(b.andPopcount(a), want) << "cols=" << cols;
    }
}

TEST(BitmaskWordApiTest, NonEmptyColumnCount)
{
    Rng rng(28);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.1);
        Index want = 0;
        for (Index c = 0; c < cols; ++c)
            want += m.columnEmpty(c) ? 0 : 1;
        EXPECT_EQ(m.nonEmptyColumnCount(), want) << "cols=" << cols;
        EXPECT_EQ(Bitmask2D(5, cols).nonEmptyColumnCount(), 0u);
    }
}

TEST(BitmaskWordApiTest, ForEachSetBitEmptyAndFull)
{
    for (Index cols : kRaggedCols) {
        Bitmask2D empty(2, cols);
        empty.forEachSetBit(
            [&](Index, Index) { FAIL() << "empty mask fired"; });

        Bitmask2D full(2, cols);
        for (Index r = 0; r < 2; ++r)
            for (Index c = 0; c < cols; ++c)
                full.set(r, c, true);
        Index count = 0;
        Index prev_bit = 0;
        full.forEachSetBit([&](Index r, Index c) {
            const Index bit = r * cols + c;
            EXPECT_TRUE(count == 0 || bit > prev_bit); // row-major
            prev_bit = bit;
            ++count;
        });
        EXPECT_EQ(count, 2 * cols) << "cols=" << cols;
    }
}

TEST(BitmaskWordApiTest, ForEachSetBitMatchesGet)
{
    Rng rng(22);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.3);
        Bitmask2D rebuilt(5, cols);
        m.forEachSetBit([&](Index r, Index c) {
            ASSERT_LT(r, m.rows());
            ASSERT_LT(c, m.cols());
            EXPECT_FALSE(rebuilt.get(r, c)); // no duplicates
            rebuilt.set(r, c, true);
        });
        EXPECT_EQ(m, rebuilt) << "cols=" << cols;
    }
}

TEST(BitmaskWordApiTest, ForEachSetBitInRowRaggedRows)
{
    Rng rng(23);
    // 63/65-column rows start mid-word from row 1 on; every row of
    // each shape must see exactly its own bits, ascending.
    for (Index cols : kRaggedCols) {
        Bitmask2D m(5, cols);
        for (Index r = 0; r < 5; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.35);
        for (Index r = 0; r < 5; ++r) {
            std::vector<Index> want;
            for (Index c = 0; c < cols; ++c)
                if (m.get(r, c))
                    want.push_back(c);
            std::vector<Index> got;
            m.forEachSetBitInRow(r, [&](Index c) { got.push_back(c); });
            EXPECT_EQ(want, got) << "cols=" << cols << " r=" << r;
        }
    }
}

TEST(BitmaskWordApiTest, WriteRowBitsStraddlesWords)
{
    for (Index cols : kRaggedCols) {
        for (Index r = 0; r < 3; ++r) {
            for (Index c0 : {Index{0}, Index{1}, Index{60}}) {
                for (Index nb : {Index{1}, Index{5}, Index{3}}) {
                    if (c0 + nb > cols)
                        continue;
                    Bitmask2D m(3, cols);
                    // Pre-set neighbours to catch clobbering.
                    if (c0 > 0)
                        m.set(r, c0 - 1, true);
                    if (c0 + nb < cols)
                        m.set(r, c0 + nb, true);
                    const u64 bits = 0b10110101;
                    m.writeRowBits(r, c0, bits, nb);
                    for (Index c = 0; c < cols; ++c) {
                        bool want;
                        if (c >= c0 && c < c0 + nb)
                            want = (bits >> (c - c0)) & 1;
                        else
                            want = (c + 1 == c0)
                                || (c == c0 + nb && c < cols);
                        EXPECT_EQ(m.get(r, c), want)
                            << "cols=" << cols << " r=" << r
                            << " c0=" << c0 << " nb=" << nb
                            << " c=" << c;
                    }
                }
            }
        }
    }
}

TEST(BitmaskWordApiTest, RowBitsMatchesGet)
{
    // Every (row, start, length) window of a random mask, straddling
    // word boundaries and ending at the row's last column, reads back
    // bit for bit with nothing set past the window.
    Rng rng(20);
    for (Index cols : kRaggedCols) {
        Bitmask2D m(3, cols);
        for (Index r = 0; r < 3; ++r)
            for (Index c = 0; c < cols; ++c)
                m.set(r, c, rng.uniform() < 0.5);
        for (Index r = 0; r < 3; ++r) {
            for (Index c0 : {Index{0}, Index{1}, Index{60}, cols - 1}) {
                for (Index nb : {Index{0}, Index{1}, Index{5}, Index{64}}) {
                    if (c0 + nb > cols)
                        continue;
                    const u64 bits = m.rowBits(r, c0, nb);
                    for (Index i = 0; i < 64; ++i)
                        EXPECT_EQ((bits >> i) & 1,
                                  i < nb && m.get(r, c0 + i) ? 1u : 0u)
                            << "cols=" << cols << " r=" << r
                            << " c0=" << c0 << " nb=" << nb << " i=" << i;
                }
            }
        }
    }
}

TEST(BitmaskWordApiTest, WriteRowBitsOverwrites)
{
    // writeRowBits overwrites the range: previously-set bits inside
    // it whose new value is 0 must clear.
    Bitmask2D m(2, 65);
    for (Index c = 0; c < 65; ++c)
        m.set(1, c, true);
    m.writeRowBits(1, 60, 0, 5);
    for (Index c = 0; c < 65; ++c)
        EXPECT_EQ(m.get(1, c), c < 60) << "c=" << c;
}

TEST(BitmaskWordApiTest, FullWidthWriteRowBits)
{
    Bitmask2D m(2, 64);
    m.writeRowBits(0, 0, ~u64{0}, 64);
    EXPECT_EQ(m.rowOnes(0), 64u);
    EXPECT_EQ(m.rowOnes(1), 0u);
    m.writeRowBits(0, 0, 0, 64);
    EXPECT_EQ(m.countOnes(), 0u);
}

// --------------------------------------------------- tiers end to end

TEST(SimdTierTest, BlockedGemmExactBitIdenticalAcrossTiers)
{
    Rng rng(24);
    const struct
    {
        Index m, k, n;
    } shapes[] = {{1, 1, 1}, {3, 7, 13}, {17, 19, 23}, {33, 65, 63}};
    for (const auto &s : shapes) {
        Matrix a(s.m, s.k), b(s.k, s.n), bt(s.n, s.k);
        a.fillUniform(rng, -2.0f, 2.0f);
        b.fillUniform(rng, -2.0f, 2.0f);
        bt.fillUniform(rng, -2.0f, 2.0f);
        if (s.m > 2 && s.k > 2) {
            a(0, 0) = kNan;
            a(1, 1) = kInf;
            a(2, 0) = -0.0f;
        }
        const Matrix scalar =
            matmulWith(a, b, GemmBackend::Blocked, SimdTier::Scalar);
        const Matrix exact =
            matmulWith(a, b, GemmBackend::Blocked, SimdTier::Exact);
        EXPECT_TRUE(bitIdentical(scalar, exact))
            << s.m << "x" << s.k << "x" << s.n;
        const Matrix scalar_t = matmulTransposedWith(
            a, bt, GemmBackend::Blocked, SimdTier::Scalar);
        const Matrix exact_t = matmulTransposedWith(
            a, bt, GemmBackend::Blocked, SimdTier::Exact);
        EXPECT_TRUE(bitIdentical(scalar_t, exact_t))
            << s.m << "x" << s.k << "x" << s.n << " transposed";
    }
}

TEST(SimdTierTest, QuantGemmIdenticalAcrossTiers)
{
    Rng rng(25);
    Matrix a(9, 31), b(31, 17);
    a.fillUniform(rng, -1.0f, 1.0f);
    b.fillUniform(rng, -1.0f, 1.0f);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    const Matrix scalar =
        matmulQuantWith(qa, qb, GemmBackend::Blocked, SimdTier::Scalar);
    const Matrix exact =
        matmulQuantWith(qa, qb, GemmBackend::Blocked, SimdTier::Exact);
    // Integer accumulation: every tier is exact, so even Fast could
    // not diverge here — assert the strongest form.
    EXPECT_TRUE(bitIdentical(scalar, exact));
}

TEST(SimdTierTest, LdMatmulIdenticalAcrossTiers)
{
    Rng rng(26);
    Matrix a(7, 29), b(29, 11);
    a.fillUniform(rng, -1.0f, 1.0f);
    b.fillUniform(rng, -1.0f, 1.0f);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    for (LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        const Matrix scalar = ldMatmul(qa, qb, mode, SimdTier::Scalar);
        const Matrix exact = ldMatmul(qa, qb, mode, SimdTier::Exact);
        EXPECT_TRUE(bitIdentical(scalar, exact));
    }
}

TEST(SimdTierTest, FastTransposedGemmWithinTolerance)
{
    Rng rng(27);
    Matrix a(13, 130), b(17, 130);
    a.fillUniform(rng, -1.0f, 1.0f);
    b.fillUniform(rng, -1.0f, 1.0f);
    const Matrix golden = matmulTransposedWith(
        a, b, GemmBackend::Reference, SimdTier::Scalar);
    const Matrix fast = matmulTransposedWith(a, b, GemmBackend::Blocked,
                                             SimdTier::Fast);
    ASSERT_EQ(golden.rows(), fast.rows());
    ASSERT_EQ(golden.cols(), fast.cols());
    for (Index i = 0; i < golden.size(); ++i)
        EXPECT_NEAR(golden.data()[i], fast.data()[i], 1e-4)
            << "i=" << i;
}

} // namespace
} // namespace exion
