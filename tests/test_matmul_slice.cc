/**
 * @file
 * SlicePlan / sliced-GEMM tests: a slice plan must cover its columns
 * exactly with aligned, ascending, disjoint ranges on adversarial
 * shapes (0 columns, 1 column, 63/64/65, nSlices > columns), sliced
 * views must alias the parent storage, and every sliced entry point
 * must be bit-identical to its solo counterpart for every backend and
 * tier — including NaN/Inf payloads and INT12 quantized slices
 * round-tripping against the unsliced at-rest image.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "exion/common/rng.h"
#include "exion/common/threadpool.h"
#include "exion/tensor/matmul_slice.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/** Bitwise equality, NaN-tolerant (Matrix::operator== says NaN!=NaN). */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && (a.size() == 0
            || std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0);
}

Matrix
randomMatrix(Index rows, Index cols, Rng &rng)
{
    Matrix m(rows, cols);
    m.fillUniform(rng, -2.0f, 2.0f);
    return m;
}

/** Checks the invariants every plan must satisfy. */
void
checkPlanInvariants(const SlicePlan &plan, Index cols, int nSlices,
                    Index align)
{
    ASSERT_EQ(plan.slices(), nSlices);
    EXPECT_EQ(plan.cols(), cols);
    Index at = 0;
    for (int s = 0; s < plan.slices(); ++s) {
        const SliceRange &r = plan.range(s);
        EXPECT_EQ(r.c0, at) << "slice " << s << " not adjacent";
        // Every boundary except the final ragged edge is aligned.
        if (r.c0 + r.n < cols) {
            EXPECT_EQ((r.c0 + r.n) % align, 0)
                << "slice " << s << " ends unaligned";
        }
        at += r.n;
    }
    EXPECT_EQ(at, cols) << "plan does not cover all columns";
}

TEST(SlicePlanTest, AdversarialShapesCoverExactly)
{
    const Index align = SlicePlan::kAlignElems;
    const Index colCases[] = {0, 1, 15, 16, 17, 63, 64, 65,
                              127, 128, 129, 1024};
    const int sliceCases[] = {1, 2, 3, 4, 7, 8, 64, 200};
    for (Index cols : colCases)
        for (int n : sliceCases) {
            SCOPED_TRACE(testing::Message()
                         << "cols=" << cols << " nSlices=" << n);
            checkPlanInvariants(SlicePlan::make(cols, n), cols, n,
                                align);
        }
}

TEST(SlicePlanTest, MoreSlicesThanColumnsLeavesTrailingEmpties)
{
    const SlicePlan plan = SlicePlan::make(/*cols=*/3, /*nSlices=*/8);
    EXPECT_FALSE(plan.parallel()); // one ragged chunk, 7 empties
    EXPECT_EQ(plan.range(0).n, 3);
    for (int s = 1; s < plan.slices(); ++s)
        EXPECT_TRUE(plan.range(s).empty());
}

TEST(SlicePlanTest, ZeroColumnsIsAllEmpty)
{
    const SlicePlan plan = SlicePlan::make(0, 4);
    EXPECT_FALSE(plan.parallel());
    for (int s = 0; s < plan.slices(); ++s)
        EXPECT_TRUE(plan.range(s).empty());
}

TEST(SlicePlanTest, BalancedWithinOneChunk)
{
    // 1024 columns / 16-elem chunks = 64 chunks over 4 slices: all
    // slices get exactly 16 chunks.
    const SlicePlan plan = SlicePlan::make(1024, 4);
    EXPECT_TRUE(plan.parallel());
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(plan.range(s).n, 256);
}

TEST(SliceViewTest, SlicedViewAliasesParentStorage)
{
    Rng rng(11);
    const Matrix b = randomMatrix(7, 65, rng);
    const SlicePlan plan = SlicePlan::make(b.cols(), 3);
    for (int s = 0; s < plan.slices(); ++s) {
        const SliceRange &r = plan.range(s);
        const Matrix v = sliceCols(b, r);
        EXPECT_TRUE(v.borrowed());
        EXPECT_EQ(v.rows(), b.rows());
        EXPECT_EQ(v.cols(), r.n);
        EXPECT_EQ(v.rowStride(), b.cols());
        for (Index i = 0; i < v.rows(); ++i) {
            if (r.n > 0) {
                EXPECT_EQ(v.rowPtr(i), b.rowPtr(i) + r.c0)
                    << "slice " << s << " row " << i
                    << " is not a view";
            }
            for (Index j = 0; j < v.cols(); ++j)
                EXPECT_EQ(v(i, j), b(i, r.c0 + j));
        }
    }
}

TEST(SliceViewTest, QuantSliceKeepsWholeTensorParams)
{
    Rng rng(13);
    const Matrix w = randomMatrix(9, 70, rng);
    const QuantMatrix q = QuantMatrix::fromFloat(w, IntWidth::Int12);
    const SlicePlan plan = SlicePlan::make(q.cols(), 4);
    for (int s = 0; s < plan.slices(); ++s) {
        const SliceRange &r = plan.range(s);
        const QuantMatrix v = sliceCols(q, r);
        EXPECT_EQ(v.params().scale, q.params().scale)
            << "slice " << s << " re-quantised";
        for (Index i = 0; i < v.rows(); ++i)
            for (Index j = 0; j < v.cols(); ++j)
                EXPECT_EQ(v(i, j), q(i, r.c0 + j));
    }
}

/**
 * INT12 at-rest round trip: dequantising the slices of a quantized
 * image column range by column range reproduces the unsliced
 * toFloat() image bit-for-bit (same integers, same scale, same
 * dequantise arithmetic).
 */
TEST(SliceViewTest, QuantSlicesRoundTripAgainstUnslicedImage)
{
    Rng rng(17);
    const Matrix w = randomMatrix(12, 129, rng);
    const QuantMatrix q = QuantMatrix::fromFloat(w, IntWidth::Int12);
    const Matrix whole = q.toFloat();
    const SlicePlan plan = SlicePlan::make(q.cols(), 5);
    Matrix stitched(whole.rows(), whole.cols());
    for (int s = 0; s < plan.slices(); ++s) {
        const SliceRange &r = plan.range(s);
        if (r.empty())
            continue;
        const Matrix part = sliceCols(q, r).toFloat();
        for (Index i = 0; i < part.rows(); ++i)
            std::memcpy(stitched.rowPtr(i) + r.c0, part.rowPtr(i),
                        static_cast<size_t>(r.n) * sizeof(float));
    }
    EXPECT_TRUE(bitIdentical(stitched, whole));
}

struct Shape
{
    Index m, k, n;
};

/** 0-row, 1-column, 63/64/65-column, nSlices > columns, tall. */
const Shape kShapes[] = {
    {0, 4, 3},  {1, 1, 1},   {5, 7, 1},   {3, 9, 63},
    {4, 8, 64}, {6, 16, 65}, {2, 5, 3}, // nSlices(4) > chunks(1)
    {64, 256, 1024},                    // paper-scale tall cohort
};

const GemmBackend kBackends[] = {GemmBackend::Reference,
                                 GemmBackend::Blocked};
const SimdTier kTiers[] = {SimdTier::Scalar, SimdTier::Exact};

TEST(MatmulSlicedTest, BitIdenticalToSoloEveryBackendAndTier)
{
    Rng rng(23);
    for (const Shape &sh : kShapes) {
        Matrix a = randomMatrix(sh.m, sh.k, rng);
        Matrix b = randomMatrix(sh.k, sh.n, rng);
        for (GemmBackend backend : kBackends)
            for (SimdTier simd : kTiers)
                for (int nSlices : {1, 2, 3, 4}) {
                    SCOPED_TRACE(testing::Message()
                                 << sh.m << "x" << sh.k << "x" << sh.n
                                 << " slices=" << nSlices);
                    SerialSliceRunner runner;
                    const TpContext tp{nSlices, &runner};
                    const Matrix solo = matmulWith(a, b, backend, simd);
                    const Matrix tpOut =
                        matmulSliced(a, b, tp, backend, simd);
                    EXPECT_EQ(maxAbsDiff(solo, tpOut), 0.0f);
                    EXPECT_TRUE(bitIdentical(solo, tpOut));
                }
    }
}

TEST(MatmulSlicedTest, NanInfPayloadsStayBitIdentical)
{
    Rng rng(29);
    Matrix a = randomMatrix(5, 18, rng);
    Matrix b = randomMatrix(18, 65, rng);
    a.data()[3] = kNan;
    a.data()[7] = kInf;
    a.data()[11] = -kInf;
    b.data()[16] = kNan; // first column of slice 1 territory
    b.data()[64] = kInf;
    b.data()[5] = -kInf;
    SerialSliceRunner runner;
    const TpContext tp{3, &runner};
    for (GemmBackend backend : kBackends) {
        const Matrix solo =
            matmulWith(a, b, backend, SimdTier::Exact);
        const Matrix tpOut =
            matmulSliced(a, b, tp, backend, SimdTier::Exact);
        EXPECT_TRUE(bitIdentical(solo, tpOut));
    }
}

TEST(MatmulQuantSlicedTest, BitIdenticalToSolo)
{
    Rng rng(37);
    for (const Shape &sh : kShapes) {
        const Matrix af = randomMatrix(sh.m, sh.k, rng);
        const Matrix bf = randomMatrix(sh.k, sh.n, rng);
        const QuantMatrix a =
            QuantMatrix::fromFloat(af, IntWidth::Int12);
        const QuantMatrix b =
            QuantMatrix::fromFloat(bf, IntWidth::Int12);
        for (GemmBackend backend : kBackends)
            for (int nSlices : {2, 4}) {
                SerialSliceRunner runner;
                const TpContext tp{nSlices, &runner};
                const Matrix solo = matmulQuantWith(a, b, backend);
                const Matrix tpOut =
                    matmulQuantSliced(a, b, tp, backend);
                EXPECT_TRUE(bitIdentical(solo, tpOut))
                    << sh.m << "x" << sh.k << "x" << sh.n
                    << " slices=" << nSlices;
            }
    }
}

TEST(PoolSliceRunnerTest, ComputesEverySliceAcrossWorkers)
{
    ThreadPool pool(3);
    PoolSliceRunner runner(pool);
    std::vector<std::atomic<int>> hits(16);
    runner.run(16, [&](int s) { hits[static_cast<size_t>(s)]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(PoolSliceRunnerTest, MatchesSerialBitForBit)
{
    Rng rng(41);
    const Matrix a = randomMatrix(64, 256, rng);
    const Matrix b = randomMatrix(256, 1024, rng);
    SerialSliceRunner serial;
    ThreadPool pool(4);
    PoolSliceRunner pooled(pool);
    const TpContext tpSerial{4, &serial};
    const TpContext tpPool{4, &pooled};
    const Matrix want =
        matmulSliced(a, b, tpSerial, GemmBackend::Blocked);
    const Matrix got = matmulSliced(a, b, tpPool, GemmBackend::Blocked);
    EXPECT_TRUE(bitIdentical(want, got));
}

TEST(PoolSliceRunnerTest, PropagatesFirstSliceException)
{
    ThreadPool pool(2);
    PoolSliceRunner runner(pool);
    EXPECT_THROW(runner.run(4,
                            [&](int s) {
                                if (s == 2)
                                    throw std::runtime_error("slice");
                            }),
                 std::runtime_error);
}

TEST(PoolSliceRunnerTest, DrainingPoolDegradesToCaller)
{
    auto pool = std::make_unique<ThreadPool>(2);
    PoolSliceRunner runner(*pool);
    pool->shutdown(); // postTagged now throws ThreadPoolStopped
    std::vector<int> hits(8, 0);
    runner.run(8, [&](int s) { hits[static_cast<size_t>(s)]++; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(TpContextTest, InactiveContextIsSoloPath)
{
    Rng rng(43);
    const Matrix a = randomMatrix(3, 5, rng);
    const Matrix b = randomMatrix(5, 40, rng);
    const TpContext tp; // nSlices == 1, no runner
    EXPECT_FALSE(tp.active());
    EXPECT_TRUE(bitIdentical(matmulSliced(a, b, tp, GemmBackend::Blocked),
                             matmulWith(a, b, GemmBackend::Blocked)));
}

} // namespace
} // namespace exion
