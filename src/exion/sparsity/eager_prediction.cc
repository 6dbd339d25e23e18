#include "exion/sparsity/eager_prediction.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace exion
{

double
HeadDecision::scoreSparsity() const
{
    return keep.sparsity();
}

Index
HeadDecision::oneHotCount() const
{
    Index n = 0;
    for (u8 v : oneHot)
        n += v;
    return n;
}

Index
ProjectionNeeds::countNeeded(const std::vector<u8> &needs)
{
    Index n = 0;
    for (u8 v : needs)
        n += v;
    return n;
}

HeadDecision
decideFromPrediction(const Matrix &predicted, const EpConfig &ep,
                     SimdTier simd)
{
    const SimdKernels &kr = simdKernels(simd);
    const Index t_q = predicted.rows();
    const Index t_k = predicted.cols();
    EXION_ASSERT(t_k > 0, "empty predicted score");

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

        // Top-1 / top-2 for the one-hot test.
        float top1 = -std::numeric_limits<float>::infinity();
        float top2 = -std::numeric_limits<float>::infinity();
        Index arg1 = 0;
        for (Index c = 0; c < t_k; ++c) {
            const float v = src[c];
            if (v > top1) {
                top2 = top1;
                top1 = v;
                arg1 = c;
            } else if (v > top2) {
                top2 = v;
            }
        }

        if (t_k > 1 && top1 - top2 > static_cast<float>(ep.qTh)) {
            // Dominant element already decided: whole row one-hot.
            out.oneHot[r] = 1;
            out.oneHotArg[r] = arg1;
            continue;
        }

        // Top-k selection: values outside the top k are zeroed.
        std::copy(src, src + t_k, row.begin());
        std::nth_element(row.begin(), row.begin() + (keep_k - 1),
                         row.end(), std::greater<float>());
        const float threshold = row[keep_k - 1];
        // Compare 64 columns per kernel call; cap at keep_k kept
        // entries (ties at the threshold keep the lowest columns,
        // exactly the per-bit scan's order).
        Index kept = 0;
        for (Index c0 = 0; c0 < t_k && kept < keep_k; c0 += 64) {
            const Index nb = std::min<Index>(64, t_k - c0);
            u64 bits = kr.cmpGeMask64(src + c0, threshold, nb);
            const Index ones =
                static_cast<Index>(std::popcount(bits));
            if (kept + ones > keep_k) {
                u64 trimmed = 0;
                for (Index m = kept; m < keep_k; ++m) {
                    trimmed |= bits & (~bits + 1);
                    bits &= bits - 1;
                }
                bits = trimmed;
                kept = keep_k;
            } else {
                kept += ones;
            }
            out.keep.writeRowBits(r, c0, bits, nb);
        }
    }
    return out;
}

Matrix
predictHeadScore(const QuantMatrix &x_q12, const QuantMatrix &wq_head,
                 const QuantMatrix &wk_head, LodMode mode, SimdTier)
{
    return predictHeadScore(ldImage(x_q12, mode), wq_head, wk_head);
}

Matrix
predictHeadScore(const LdImage &x_img, const QuantMatrix &wq_head,
                 const QuantMatrix &wk_head)
{
    EXION_ASSERT(wq_head.cols() == wk_head.cols(),
                 "head width mismatch");
    const LodMode mode = x_img.mode;
    const Index dh = wq_head.cols();

    // LD projections produce float estimates; requantise for the
    // second-level LD MMUL, as the EPRE feeds its own outputs back.
    const Matrix q_est = ldMatmul(x_img, ldImage(wq_head, mode));
    const Matrix k_est = ldMatmul(x_img, ldImage(wk_head, mode));
    const QuantMatrix q12 = QuantMatrix::fromFloat(q_est, IntWidth::Int12);
    const QuantMatrix k12 = QuantMatrix::fromFloat(k_est, IntWidth::Int12);

    Matrix scores =
        ldMatmul(ldImage(q12, mode), ldImage(k12, mode, true));
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
    for (Index i = 0; i < scores.size(); ++i)
        scores.data()[i] *= inv_sqrt;
    return scores;
}

ProjectionNeeds
combineNeeds(const std::vector<HeadDecision> &heads, Index tokens)
{
    ProjectionNeeds needs;
    needs.qRowNeeded.assign(tokens, 0);
    needs.kRowNeeded.assign(tokens, 0);
    needs.vRowNeeded.assign(tokens, 0);

    for (const auto &head : heads) {
        EXION_ASSERT(head.keep.rows() == tokens
                         && head.oneHot.size() == tokens,
                     "head decision shape mismatch");
        for (Index r = 0; r < tokens; ++r) {
            if (head.oneHot[r]) {
                // Output copied from V[argmax]; no Q row needed.
                needs.vRowNeeded[head.oneHotArg[r]] = 1;
                continue;
            }
            needs.qRowNeeded[r] = 1;
            head.keep.forEachSetBitInRow(r, [&](Index c) {
                needs.kRowNeeded[c] = 1;
                needs.vRowNeeded[c] = 1;
            });
        }
    }
    return needs;
}

} // namespace exion
