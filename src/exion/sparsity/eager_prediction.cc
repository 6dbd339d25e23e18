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

namespace
{

/**
 * Integer key ordered like kthLargest's float order: flipping a
 * negative float's magnitude bits makes signed integer order follow
 * float order, then -0 joins +0 at 0 and NaN drops to the minimum.
 */
inline i32
orderKey(float v)
{
    const i32 bits = std::bit_cast<i32>(v);
    const i32 key = bits ^ ((bits >> 31) & 0x7FFFFFFF);
    const i32 finite_key = v == 0.0f ? 0 : key;
    return v != v ? std::numeric_limits<i32>::min() : finite_key;
}

/** Inverse of orderKey (the minimum key maps back to a NaN). */
inline float
keyValue(i32 key)
{
    return std::bit_cast<float>(key ^ ((key >> 31) & 0x7FFFFFFF));
}

} // namespace

float
kthLargest(std::span<const float> x, Index k, std::vector<i32> &scratch)
{
    const Index n = x.size();
    EXION_ASSERT(k >= 1 && k <= n, "kthLargest rank ", k, " of ", n);
    scratch.resize(2 * n);
    i32 *buf[2] = {scratch.data(), scratch.data() + n};
    for (Index i = 0; i < n; ++i)
        buf[0][i] = orderKey(x[i]);

    // Candidates sit at from[0, m); rank counts how many of them rank
    // above the answer. Each pass splits them around a pivot into the
    // spare buffer: greater keys fill it from the front, smaller ones
    // from the back, and both slots are written every step, so only
    // the counters depend on the data.
    int cur = 0;
    const i32 *from = buf[0];
    Index m = n;
    Index rank = k - 1;
    for (;;) {
        const i32 a = from[0];
        const i32 b = from[m / 2];
        const i32 c = from[m - 1];
        const i32 pivot =
            std::max(std::min(a, b), std::min(std::max(a, b), c));
        i32 *to = buf[1 - cur];
        Index n_gt = 0;
        Index n_lt = 0;
        for (Index i = 0; i < m; ++i) {
            const i32 v = from[i];
            to[n_gt] = v;
            to[m - 1 - n_lt] = v;
            n_gt += v > pivot;
            n_lt += v < pivot;
        }
        cur = 1 - cur;
        if (rank < n_gt) {
            from = to;
            m = n_gt;
        } else if (rank < m - n_lt) {
            return keyValue(pivot);
        } else {
            rank -= m - n_lt;
            from = to + (m - n_lt);
            m = n_lt;
        }
    }
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

    std::vector<i32> scratch;
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

        // Top-k selection: values outside the top k are zeroed. Every
        // entry ranks at or above a NaN threshold.
        const float threshold = kthLargest({src, t_k}, keep_k, scratch);
        const bool keep_all = threshold != threshold;
        // Compare 64 columns per kernel call; cap at keep_k kept
        // entries (ties at the threshold keep the lowest columns,
        // exactly the per-bit scan's order).
        Index kept = 0;
        for (Index c0 = 0; c0 < t_k && kept < keep_k; c0 += 64) {
            const Index nb = std::min<Index>(64, t_k - c0);
            u64 bits = keep_all
                ? ~u64{0} >> (64 - nb)
                : kr.cmpGeMask64(src + c0, threshold, nb);
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
    return predictHeadScore(ldImage(x_q12, mode), ldImage(wq_head, mode),
                            ldImage(wk_head, mode));
}

Matrix
predictHeadScore(const LdImage &x_img, const LdImage &wq_head,
                 const LdImage &wk_head)
{
    EXION_ASSERT(wq_head.cols == wk_head.cols, "head width mismatch");
    const LodMode mode = x_img.mode;
    const Index dh = wq_head.cols;

    // LD projections produce float estimates; requantise for the
    // second-level LD MMUL, as the EPRE feeds its own outputs back.
    const Matrix q_est = ldMatmul(x_img, wq_head);
    const Matrix k_est = ldMatmul(x_img, wk_head);
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
