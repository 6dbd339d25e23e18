/**
 * @file
 * Differential test of eager-prediction attention against an in-test
 * reference of the straightforward algorithm: per-head INT12
 * quantisation of the Wq/Wk slices on every call, the QuantMatrix
 * predictHeadScore overload, a sorted top-k threshold
 * (std::nth_element) with a per-bit column scan, and one serial dot
 * per kept score.
 *
 * epAttentionImpl (cached weight images, a partition-select
 * threshold, every score of a head from one GEMM) must reproduce the
 * reference byte for byte: the output, every per-head keep mask and
 * every ExecStats field, solo and as a cohort member.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "exion/common/rng.h"
#include "exion/sparsity/cohort_executor.h"
#include "exion/sparsity/sparse_executor.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

/** Keep masks in (block, head) firing order. */
using MaskLog = std::vector<Bitmask2D>;

/** Reference per-row top-k: nth_element threshold, ascending scan. */
HeadDecision
referenceDecide(const Matrix &predicted, const EpConfig &ep)
{
    const Index t_q = predicted.rows();
    const Index t_k = predicted.cols();
    HeadDecision out;
    out.keep = Bitmask2D(t_q, t_k);
    out.oneHot.assign(t_q, 0);
    out.oneHotArg.assign(t_q, 0);
    const Index keep_k = std::max<Index>(
        1, static_cast<Index>(
               std::ceil(ep.topK * static_cast<double>(t_k))));
    std::vector<float> row(t_k);
    for (Index r = 0; r < t_q; ++r) {
        const float *src = predicted.rowPtr(r);
        float top1 = -std::numeric_limits<float>::infinity();
        float top2 = -std::numeric_limits<float>::infinity();
        Index arg1 = 0;
        for (Index c = 0; c < t_k; ++c) {
            if (src[c] > top1) {
                top2 = top1;
                top1 = src[c];
                arg1 = c;
            } else if (src[c] > top2) {
                top2 = src[c];
            }
        }
        if (t_k > 1 && top1 - top2 > static_cast<float>(ep.qTh)) {
            out.oneHot[r] = 1;
            out.oneHotArg[r] = arg1;
            continue;
        }
        std::copy(src, src + t_k, row.begin());
        std::nth_element(row.begin(), row.begin() + (keep_k - 1),
                         row.end(), std::greater<float>());
        const float threshold = row[keep_k - 1];
        Index kept = 0;
        for (Index c = 0; c < t_k && kept < keep_k; ++c) {
            if (src[c] >= threshold) {
                out.keep.set(r, c, true);
                ++kept;
            }
        }
    }
    return out;
}

/** Reference row-masked projection: pack needed rows, scatter back. */
Matrix
referenceProject(const Matrix &x, const Linear &proj,
                 const std::vector<u8> &needed, bool quantize,
                 GemmBackend backend, SimdTier simd)
{
    Matrix out(x.rows(), proj.outDim());
    std::vector<Index> rows;
    for (Index r = 0; r < x.rows(); ++r)
        if (needed[r])
            rows.push_back(r);
    if (rows.empty())
        return out;
    Matrix packed(rows.size(), x.cols());
    for (Index i = 0; i < rows.size(); ++i)
        for (Index c = 0; c < x.cols(); ++c)
            packed(i, c) = x(rows[i], c);
    Matrix projected =
        execWeightMatmul(packed, proj, quantize, backend, simd);
    addRowVector(projected, proj.bias());
    for (Index i = 0; i < rows.size(); ++i)
        for (Index c = 0; c < out.cols(); ++c)
            out(rows[i], c) = projected(i, c);
    return out;
}

/** The reference EP attention of one request. */
Matrix
referenceEpAttention(const TransformerBlock &blk, const Matrix &x_norm,
                     const EpConfig &ep, LodMode mode, bool quantize,
                     GemmBackend backend, SimdTier simd, ExecStats &stats,
                     MaskLog &masks)
{
    const SimdKernels &kr = simdKernels(SimdTier::Scalar);
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    const float inv_sqrt = static_cast<float>(blk.scoreTemp())
        / std::sqrt(static_cast<float>(dh));

    const QuantMatrix xq = QuantMatrix::fromFloat(x_norm, IntWidth::Int12);
    std::vector<HeadDecision> decisions;
    for (Index h = 0; h < n_heads; ++h) {
        const QuantMatrix qwq = QuantMatrix::fromFloat(
            sliceCols(blk.wq().weight(), h * dh, dh), IntWidth::Int12);
        const QuantMatrix qwk = QuantMatrix::fromFloat(
            sliceCols(blk.wk().weight(), h * dh, dh), IntWidth::Int12);
        Matrix predicted = predictHeadScore(xq, qwq, qwk, mode);
        for (Index i = 0; i < predicted.size(); ++i)
            predicted.data()[i] *= static_cast<float>(blk.scoreTemp());
        HeadDecision dec = referenceDecide(predicted, ep);
        masks.push_back(dec.keep);
        stats.scoreSparsitySum += dec.scoreSparsity();
        ++stats.scoreSparsitySamples;
        decisions.push_back(std::move(dec));
    }
    const ProjectionNeeds needs = combineNeeds(decisions, t);
    const Index nq = ProjectionNeeds::countNeeded(needs.qRowNeeded);
    const Index nk = ProjectionNeeds::countNeeded(needs.kRowNeeded);
    const Index nv = ProjectionNeeds::countNeeded(needs.vRowNeeded);
    stats.qRowsTotal += t;
    stats.kColsTotal += t;
    stats.vColsTotal += t;
    stats.qRowsSkipped += t - nq;
    stats.kColsSkipped += t - nk;
    stats.vColsSkipped += t - nv;

    const Matrix q = referenceProject(x_norm, blk.wq(), needs.qRowNeeded,
                                      quantize, backend, simd);
    const Matrix k = referenceProject(x_norm, blk.wk(), needs.kRowNeeded,
                                      quantize, backend, simd);
    const Matrix v = referenceProject(x_norm, blk.wv(), needs.vRowNeeded,
                                      quantize, backend, simd);
    stats.qkvOpsDense += 3 * mmulOps(t, d, d);
    stats.qkvOpsExecuted +=
        mmulOps(nq, d, d) + mmulOps(nk, d, d) + mmulOps(nv, d, d);

    Matrix concat(t, d);
    for (Index h = 0; h < n_heads; ++h) {
        const HeadDecision &dec = decisions[h];
        OpCount kept_total = 0;
        for (Index r = 0; r < t; ++r) {
            if (dec.oneHot[r]) {
                for (Index c = 0; c < dh; ++c)
                    concat(r, h * dh + c) = v(dec.oneHotArg[r], h * dh + c);
                continue;
            }
            std::vector<Index> cols;
            dec.keep.forEachSetBitInRow(r,
                                        [&](Index c) { cols.push_back(c); });
            std::vector<float> s(cols.size());
            float max_v = -std::numeric_limits<float>::infinity();
            for (Index i = 0; i < cols.size(); ++i) {
                s[i] = kr.dotF32(q.rowPtr(r) + h * dh,
                                 k.rowPtr(cols[i]) + h * dh, dh)
                    * inv_sqrt;
                max_v = std::max(max_v, s[i]);
            }
            kept_total += cols.size();
            double denom = 0.0;
            for (float &e : s) {
                e = std::exp(e - max_v);
                denom += e;
            }
            const float inv_denom = static_cast<float>(1.0 / denom);
            for (Index i = 0; i < cols.size(); ++i)
                kr.axpyF32(concat.rowPtr(r) + h * dh,
                           v.rowPtr(cols[i]) + h * dh, s[i] * inv_denom,
                           dh);
        }
        stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
        stats.attnOpsExecuted += 2 * 2 * kept_total * dh;
    }

    Matrix out = execWeightMatmul(concat, blk.wo(), quantize, backend, simd);
    addRowVector(out, blk.wo().bias());
    stats.attnOpsDense += mmulOps(t, d, d);
    stats.attnOpsExecuted += mmulOps(t, d, d);
    return out;
}

void
expectSameBytes(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(float)),
              0);
}

void
expectSameMasks(const MaskLog &a, const MaskLog &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (Index i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].rows(), b[i].rows());
        ASSERT_EQ(a[i].cols(), b[i].cols());
        EXPECT_EQ(std::memcmp(a[i].words().data(), b[i].words().data(),
                              a[i].wordCount() * sizeof(u64)),
                  0)
            << "mask " << i;
    }
}

#define EXPECT_SAME_FIELD(a, b, f)                                      \
    EXPECT_EQ(std::memcmp(&(a).f, &(b).f, sizeof((a).f)), 0) << #f

void
expectSameStats(const ExecStats &a, const ExecStats &b)
{
    EXPECT_SAME_FIELD(a, b, qkvOpsDense);
    EXPECT_SAME_FIELD(a, b, qkvOpsExecuted);
    EXPECT_SAME_FIELD(a, b, attnOpsDense);
    EXPECT_SAME_FIELD(a, b, attnOpsExecuted);
    EXPECT_SAME_FIELD(a, b, ffnOpsDense);
    EXPECT_SAME_FIELD(a, b, ffnOpsExecuted);
    EXPECT_SAME_FIELD(a, b, ffnSparsitySum);
    EXPECT_SAME_FIELD(a, b, ffnSparsitySamples);
    EXPECT_SAME_FIELD(a, b, scoreSparsitySum);
    EXPECT_SAME_FIELD(a, b, scoreSparsitySamples);
    EXPECT_SAME_FIELD(a, b, qRowsTotal);
    EXPECT_SAME_FIELD(a, b, qRowsSkipped);
    EXPECT_SAME_FIELD(a, b, kColsTotal);
    EXPECT_SAME_FIELD(a, b, kColsSkipped);
    EXPECT_SAME_FIELD(a, b, vColsTotal);
    EXPECT_SAME_FIELD(a, b, vColsSkipped);
}

/**
 * The configurations swept: a mid keep rate with one-hot rows, the
 * reduced StableDiffusion knobs (80% kept) and the reduced DiT knobs
 * (5% kept).
 */
const EpConfig kEpConfigs[] = {{0.5, 0.5}, {0.8, 0.8}, {0.15, 0.05}};

/**
 * Block widths swept: reduced StableDiffusion's 12-wide heads, below
 * every float vector width, and 32-wide heads, where a reassociated
 * dot would round differently from the serial chain.
 */
struct HeadShape
{
    Index dModel, heads;
};

constexpr HeadShape kHeadShapes[] = {{48, 4}, {64, 2}};

/** One solo epAttentionImpl call against the reference. */
void
expectSoloMatchesReference(const TransformerBlock &blk, const Matrix &x,
                           const EpWeightImages &img, const EpConfig &ep,
                           LodMode mode, bool quantize, SimdTier simd,
                           GemmBackend backend)
{
    SCOPED_TRACE(testing::Message()
                 << "d=" << blk.dModel() << " heads=" << blk.nHeads()
                 << " t=" << x.rows() << " mode=" << static_cast<int>(mode)
                 << " quantize=" << quantize
                 << " simd=" << simdTierName(simd)
                 << " gemm=" << gemmBackendName(backend)
                 << " topK=" << ep.topK);
    ExecStats ref_stats;
    MaskLog ref_masks;
    const Matrix ref = referenceEpAttention(blk, x, ep, mode, quantize,
                                            backend, simd, ref_stats,
                                            ref_masks);

    ExecStats stats;
    MaskLog masks;
    ExecObservers obs;
    obs.onScoreMask = [&](int, int, const Bitmask2D &keep) {
        masks.push_back(keep);
    };
    const Matrix out =
        epAttentionImpl(blk, x, img, ep, quantize, stats, obs, backend, simd);
    expectSameBytes(out, ref);
    expectSameMasks(masks, ref_masks);
    expectSameStats(stats, ref_stats);
}

TEST(EpDifferential, SoloMatchesReferenceEverywhere)
{
    for (const HeadShape &shape : kHeadShapes) {
        for (Index t : {Index{8}, Index{32}, Index{48}, Index{128}}) {
            Rng rng(100 + t);
            const TransformerBlock blk(3, shape.dModel, shape.heads, 2,
                                       false, rng);
            Matrix x(t, shape.dModel);
            x.fillNormal(rng, 0.0f, 1.0f);
            for (LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
                const EpWeightImages img = epWeightImages(blk, mode);
                for (bool quantize : {false, true})
                    for (SimdTier simd : {SimdTier::Scalar, SimdTier::Exact})
                        for (GemmBackend backend : {GemmBackend::Reference,
                                                    GemmBackend::Blocked})
                            for (const EpConfig &ep : kEpConfigs)
                                expectSoloMatchesReference(
                                    blk, x, img, ep, mode, quantize, simd,
                                    backend);
            }
        }
    }
}

TEST(EpDifferential, WideBlockBatchedProjectionMatchesPerHead)
{
    // A 256-wide, 8-head block: epAttentionImpl runs all 16 head
    // projections (Q and K) as one 256 x 512 integer GEMM, and must
    // match the reference's separate per-head predictHeadScore calls
    // head by head — every keep mask, the output and the stats.
    Rng rng(31);
    const TransformerBlock blk(2, 256, 8, 2, false, rng);
    for (Index t : {Index{32}, Index{128}}) {
        Matrix x(t, 256);
        x.fillNormal(rng, 0.0f, 1.0f);
        for (LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
            const EpWeightImages img = epWeightImages(blk, mode);
            for (SimdTier simd : {SimdTier::Scalar, SimdTier::Exact})
                for (const EpConfig &ep : kEpConfigs)
                    expectSoloMatchesReference(blk, x, img, ep, mode,
                                               false, simd,
                                               GemmBackend::Blocked);
        }
    }
}

TEST(EpDifferential, CohortMembersMatchReference)
{
    constexpr Index kMembers = 3;
    constexpr Index kTokens = 32;
    Rng rng(7);
    const TransformerBlock blk(1, 48, 4, 2, false, rng);
    Matrix x(kMembers * kTokens, 48);
    x.fillNormal(rng, 0.0f, 1.0f);

    for (bool quantize : {false, true}) {
        SCOPED_TRACE(testing::Message() << "quantize=" << quantize);
        SparseExecutor::Options opt;
        opt.useFfnReuse = false;
        opt.useEp = true;
        opt.quantize = quantize;
        opt.ep = {0.5, 0.5};
        opt.gemm = GemmBackend::Blocked;
        opt.simd = SimdTier::Exact;
        CohortExecutor exec(opt);
        std::vector<MaskLog> masks(kMembers);
        std::vector<Index> slots;
        for (Index m = 0; m < kMembers; ++m) {
            slots.push_back(m);
            exec.slotObservers(m).onScoreMask =
                [&masks, m](int, int, const Bitmask2D &keep) {
                    masks[m].push_back(keep);
                };
        }
        exec.beginCohortStep(slots, {0, 2, 5});
        // Two blocks' worth of calls: the second reuses the cached
        // weight images.
        for (int pass = 0; pass < 2; ++pass) {
            const Matrix out = exec.attention(blk, x);
            for (Index m = 0; m < kMembers; ++m) {
                SCOPED_TRACE(testing::Message()
                             << "pass=" << pass << " member=" << m);
                ExecStats ref_stats;
                MaskLog ref_masks;
                const Matrix ref = referenceEpAttention(
                    blk, sliceRows(x, m * kTokens, kTokens), opt.ep,
                    opt.lodMode, quantize, opt.gemm, opt.simd, ref_stats,
                    ref_masks);
                expectSameBytes(sliceRows(out, m * kTokens, kTokens), ref);
                expectSameMasks(masks[m], ref_masks);
                expectSameStats(exec.slotContext(m).stats, ref_stats);
                masks[m].clear();
                exec.slotContext(m).stats = {};
            }
        }
    }
}

TEST(EpDifferential, InfiniteInputFinishesDeterministically)
{
    // +-Inf in the block input makes the INT12 scale Inf and Inf/Inf
    // a NaN, which quantises to 0; the run must finish (no empty
    // keep set, no undefined cast) and repeat byte for byte.
    Rng rng(11);
    const TransformerBlock blk(0, 48, 4, 2, false, rng);
    Matrix x(32, 48);
    x.fillNormal(rng, 0.0f, 1.0f);
    x(5, 7) = std::numeric_limits<float>::infinity();
    const EpWeightImages img = epWeightImages(blk, LodMode::TwoStep);
    const EpConfig ep{0.8, 0.8};

    ExecStats s1, s2;
    ExecObservers obs;
    const Matrix a = epAttentionImpl(blk, x, img, ep, false, s1, obs);
    const Matrix b = epAttentionImpl(blk, x, img, ep, false, s2, obs);
    expectSameBytes(a, b);
    expectSameStats(s1, s2);
}

} // namespace
} // namespace exion
