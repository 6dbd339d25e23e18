/**
 * @file
 * Tests for eager-prediction decisions and projection-skip derivation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "exion/common/rng.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

Matrix
makeScores(std::initializer_list<std::initializer_list<float>> rows)
{
    const Index r = rows.size();
    const Index c = rows.begin()->size();
    Matrix m(r, c);
    Index i = 0;
    for (const auto &row : rows) {
        Index j = 0;
        for (float v : row)
            m(i, j++) = v;
        ++i;
    }
    return m;
}

TEST(Decision, TopKKeepsLargest)
{
    const Matrix pred = makeScores({{0.1f, 0.9f, 0.5f, 0.2f}});
    EpConfig ep{10.0, 0.5}; // huge q_th: no one-hot; keep 2 of 4
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_FALSE(dec.oneHot[0]);
    EXPECT_TRUE(dec.keep.get(0, 1));
    EXPECT_TRUE(dec.keep.get(0, 2));
    EXPECT_FALSE(dec.keep.get(0, 0));
    EXPECT_FALSE(dec.keep.get(0, 3));
}

TEST(Decision, OneHotWhenDominant)
{
    const Matrix pred = makeScores({{5.0f, 0.1f, 0.2f, 0.0f},
                                    {0.3f, 0.35f, 0.2f, 0.1f}});
    EpConfig ep{1.0, 0.5};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_TRUE(dec.oneHot[0]);
    EXPECT_EQ(dec.oneHotArg[0], 0u);
    EXPECT_EQ(dec.keep.rowOnes(0), 0u); // one-hot rows have no MMUL
    EXPECT_FALSE(dec.oneHot[1]);
    EXPECT_EQ(dec.keep.rowOnes(1), 2u);
}

TEST(Decision, SparsityTracksKeepRatio)
{
    Rng rng(5);
    Matrix pred(64, 64);
    pred.fillNormal(rng, 0.0f, 1.0f);
    EpConfig ep{100.0, 0.25};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_NEAR(dec.scoreSparsity(), 0.75, 0.02);
}

TEST(Decision, KeepRatioOneKeepsEverything)
{
    Rng rng(7);
    Matrix pred(16, 16);
    pred.fillNormal(rng, 0.0f, 1.0f);
    EpConfig ep{1e9, 1.0};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_DOUBLE_EQ(dec.scoreSparsity(), 0.0);
    EXPECT_EQ(dec.oneHotCount(), 0u);
}

TEST(Needs, OneHotRowSkipsQButNeedsArgV)
{
    const Matrix pred = makeScores({{9.0f, 0.0f, 0.0f},
                                    {0.2f, 0.25f, 0.22f},
                                    {0.21f, 0.2f, 0.24f}});
    EpConfig ep{1.0, 0.67};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    ASSERT_TRUE(dec.oneHot[0]);
    const ProjectionNeeds needs = combineNeeds({dec}, 3);
    EXPECT_FALSE(needs.qRowNeeded[0]); // one-hot: Q projection skipped
    EXPECT_TRUE(needs.qRowNeeded[1]);
    EXPECT_TRUE(needs.vRowNeeded[0]); // argmax V still required
}

TEST(Needs, UnkeptColumnsSkipKv)
{
    // All rows keep only columns 0 and 1; column 2 is never needed.
    const Matrix pred = makeScores({{0.9f, 0.8f, 0.0f},
                                    {0.8f, 0.9f, 0.0f},
                                    {0.85f, 0.9f, 0.1f}});
    EpConfig ep{10.0, 0.6}; // ceil(0.6 * 3) = 2 kept per row
    const HeadDecision dec = decideFromPrediction(pred, ep);
    const ProjectionNeeds needs = combineNeeds({dec}, 3);
    EXPECT_TRUE(needs.kRowNeeded[0]);
    EXPECT_TRUE(needs.kRowNeeded[1]);
    EXPECT_FALSE(needs.kRowNeeded[2]);
    EXPECT_FALSE(needs.vRowNeeded[2]);
}

TEST(Needs, UnionAcrossHeads)
{
    const Matrix pred_a = makeScores({{0.9f, 0.1f}, {0.8f, 0.1f}});
    const Matrix pred_b = makeScores({{0.1f, 0.9f}, {0.1f, 0.8f}});
    EpConfig ep{10.0, 0.5};
    const HeadDecision da = decideFromPrediction(pred_a, ep);
    const HeadDecision db = decideFromPrediction(pred_b, ep);
    const ProjectionNeeds needs = combineNeeds({da, db}, 2);
    // Each head keeps a different column; union needs both.
    EXPECT_TRUE(needs.kRowNeeded[0]);
    EXPECT_TRUE(needs.kRowNeeded[1]);
}

TEST(PredictHeadScore, CorrelatesWithExactScores)
{
    Rng rng(11);
    const Index t = 24, d = 32, dh = 16;
    Matrix x(t, d), wq(d, dh), wk(d, dh);
    x.fillNormal(rng, 0.0f, 1.0f);
    wq.fillNormal(rng, 0.0f, 0.18f);
    wk.fillNormal(rng, 0.0f, 0.18f);

    const Matrix q = matmul(x, wq);
    const Matrix k = matmul(x, wk);
    Matrix exact = matmulTransposed(q, k);
    const float inv = 1.0f / std::sqrt(static_cast<float>(dh));
    for (Index i = 0; i < exact.size(); ++i)
        exact.data()[i] *= inv;

    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    const QuantMatrix qwq = QuantMatrix::fromFloat(wq, IntWidth::Int12);
    const QuantMatrix qwk = QuantMatrix::fromFloat(wk, IntWidth::Int12);
    const Matrix pred = predictHeadScore(qx, qwq, qwk,
                                         LodMode::TwoStep);

    // The prediction needs to preserve per-row rankings; check that
    // the true argmax lands in the predicted top-25% for most rows.
    Index hits = 0;
    for (Index r = 0; r < t; ++r) {
        Index true_arg = 0;
        for (Index c = 1; c < t; ++c)
            if (exact(r, c) > exact(r, true_arg))
                true_arg = c;
        Index rank = 0;
        for (Index c = 0; c < t; ++c)
            if (pred(r, c) > pred(r, true_arg))
                ++rank;
        hits += (rank < t / 4) ? 1 : 0;
    }
    EXPECT_GE(hits, t * 3 / 4);
}

/** Parameterised sweep over keep ratios: sparsity is monotone. */
class KeepRatioSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(KeepRatioSweep, SparsityApproximatesOneMinusK)
{
    const double k = GetParam();
    Rng rng(23);
    Matrix pred(48, 48);
    pred.fillNormal(rng, 0.0f, 1.0f);
    EpConfig ep{1e9, k};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    EXPECT_NEAR(dec.scoreSparsity(), 1.0 - k, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Ratios, KeepRatioSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.7, 0.8));

/** Descending in kthLargest's order: NaN below every number. */
bool
ranksAbove(float a, float b)
{
    return !std::isnan(a) && (std::isnan(b) || a > b);
}

TEST(KthLargest, MatchesSortedReferenceOnAdversarialRows)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    // Ties, both zeros, both infinities and NaNs of both signs.
    const float pool[] = {nan,  -nan, inf,  -inf, 0.0f, -0.0f,
                          1.0f, 1.0f, -1.0f, 2.5f, -2.5f, 1e-30f};
    Rng rng(77);
    std::vector<i32> scratch;
    for (Index t : {1, 2, 63, 64, 65, 128, 129}) {
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<float> row(t);
            const int style = trial % 4;
            for (float &v : row) {
                if (style == 0)
                    v = static_cast<float>(rng.normal(0.0, 1.0));
                else if (style == 1)
                    v = pool[rng.uniformInt(std::size(pool))];
                else if (style == 2)
                    v = static_cast<float>(rng.uniformInt(3)); // ties
                else
                    v = rng.bernoulli(0.5)
                        ? pool[rng.uniformInt(std::size(pool))]
                        : static_cast<float>(rng.normal(0.0, 1.0));
            }
            std::vector<float> sorted = row;
            std::sort(sorted.begin(), sorted.end(), ranksAbove);
            const Index mid = 1 + rng.uniformInt(t);
            for (Index k : {Index{1}, t, mid}) {
                const float expect = sorted[k - 1];
                const float got = kthLargest(row, k, scratch);
                if (std::isnan(expect))
                    EXPECT_TRUE(std::isnan(got))
                        << "t=" << t << " k=" << k << " style=" << style;
                else
                    EXPECT_EQ(got, expect)
                        << "t=" << t << " k=" << k << " style=" << style;
            }
        }
    }
}

TEST(EagerPrediction, NanScoresKeepExactlyKeepK)
{
    // NaN ranks below every number. A row whose keep_k-th largest is
    // NaN has every entry at or above its threshold, so the lowest
    // keep_k columns stay — the same trim that breaks ties.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Matrix pred = makeScores({{nan, 5.0f, nan, 3.0f},
                                    {nan, nan, nan, nan},
                                    {4.0f, nan, 2.0f, 1.0f}});
    EpConfig ep{1e9, 0.5};
    const HeadDecision dec = decideFromPrediction(pred, ep);
    for (Index r = 0; r < 3; ++r)
        EXPECT_FALSE(dec.oneHot[r]) << r;
    // keep_k = 2: row 0's top two are numbers.
    EXPECT_FALSE(dec.keep.get(0, 0));
    EXPECT_TRUE(dec.keep.get(0, 1));
    EXPECT_FALSE(dec.keep.get(0, 2));
    EXPECT_TRUE(dec.keep.get(0, 3));
    EXPECT_TRUE(dec.keep.get(1, 0));
    EXPECT_TRUE(dec.keep.get(1, 1));
    EXPECT_FALSE(dec.keep.get(1, 2));
    EXPECT_TRUE(dec.keep.get(2, 0));
    EXPECT_TRUE(dec.keep.get(2, 2));
    EXPECT_FALSE(dec.keep.get(2, 1));

    ep.topK = 0.75; // keep_k = 3: row 0's third largest is NaN
    const HeadDecision all = decideFromPrediction(pred, ep);
    EXPECT_TRUE(all.keep.get(0, 0));
    EXPECT_TRUE(all.keep.get(0, 1));
    EXPECT_TRUE(all.keep.get(0, 2));
    EXPECT_FALSE(all.keep.get(0, 3));
}

} // namespace
} // namespace exion
