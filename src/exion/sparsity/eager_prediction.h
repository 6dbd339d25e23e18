/**
 * @file
 * Eager prediction of attention scores (Section II-B, Fig. 5b).
 *
 * The EPRE predicts the attention score per head with log-domain
 * arithmetic, then derives skip decisions:
 *  - per-row top-k selection zeroes non-top-k score entries;
 *  - rows whose (top1 - top2) exceeds q_th become one-hot and skip the
 *    real computation entirely;
 *  - key columns with no kept entry skip K projection; value columns
 *    needed by neither kept entries nor one-hot argmaxes skip V
 *    projection; one-hot rows skip Q projection.
 */

#ifndef EXION_SPARSITY_EAGER_PREDICTION_H_
#define EXION_SPARSITY_EAGER_PREDICTION_H_

#include <span>
#include <vector>

#include "exion/model/config.h"
#include "exion/sparsity/log_domain.h"
#include "exion/tensor/bitmask.h"

namespace exion
{

/**
 * Per-head skip decision derived from a predicted attention score.
 */
struct HeadDecision
{
    /** T x T keep mask over real score computation (1 = compute). */
    Bitmask2D keep;
    /** Per query row: row resolved by one-hot approximation. */
    std::vector<u8> oneHot;
    /** Argmax column for one-hot rows (undefined otherwise). */
    std::vector<Index> oneHotArg;

    /** Zero fraction of the keep mask (intra-iteration sparsity). */
    double scoreSparsity() const;

    /** Number of one-hot rows. */
    Index oneHotCount() const;
};

/**
 * Block-level projection-skip summary across heads.
 *
 * A projection row/token is needed if any head needs it.
 */
struct ProjectionNeeds
{
    std::vector<u8> qRowNeeded; //!< query tokens needing real Q
    std::vector<u8> kRowNeeded; //!< key tokens needing real K
    std::vector<u8> vRowNeeded; //!< value tokens needing real V

    /** Count of set entries in a needs vector. */
    static Index countNeeded(const std::vector<u8> &needs);
};

/**
 * The k-th largest of x (k is 1-based) under a total order: -0 and +0
 * tie, and NaN ranks below every number, -Inf included. The result
 * compares equal to the k-th entry of x sorted descending in that
 * order (a NaN when that entry is NaN).
 *
 * A three-way partition select over integer order keys: each pass
 * moves every candidate into its side with index arithmetic instead
 * of a data-dependent branch. Median-of-three pivots make it linear
 * on average; only a crafted order makes it quadratic.
 *
 * @param scratch reused buffer (grown to 2 * x.size())
 * @pre 1 <= k <= x.size()
 */
float kthLargest(std::span<const float> x, Index k,
                 std::vector<i32> &scratch);

/**
 * Builds the skip decision for one head from its predicted score.
 *
 * Non-one-hot rows keep the entries at or above their keep_k-th
 * largest value in kthLargest's order (every entry, when that value
 * is NaN), trimmed to the lowest keep_k columns.
 *
 * @param predicted scaled predicted attention score (T x T)
 * @param ep        q_th / top-k configuration
 * @param simd      SIMD tier for the threshold scans (every tier is
 *                  bit-identical — compares carry no reductions)
 */
HeadDecision decideFromPrediction(const Matrix &predicted,
                                  const EpConfig &ep,
                                  SimdTier simd = defaultSimdTier());

/**
 * Predicts one head's scaled attention score in the log domain.
 *
 * Runs LD projections of x through Wq/Wk head slices, then the LD
 * QK^T (predictScoreFromProjections), mirroring the EPRE datapath.
 * Biases are skipped (the EPRE predicts from the dominant MMUL terms
 * only).
 *
 * @param x_q12   INT12-quantised block input
 * @param wq_head head slice of the Q weight (d x d_head), quantised
 * @param wk_head head slice of the K weight (d x d_head), quantised
 * @param mode    LOD depth
 * @param simd    kernel table of the integer image GEMMs; they are
 *                exact, so every tier gives the same bits
 */
Matrix predictHeadScore(const QuantMatrix &x_q12,
                        const QuantMatrix &wq_head,
                        const QuantMatrix &wk_head, LodMode mode,
                        SimdTier simd = defaultSimdTier());

/**
 * The EPRE's second level: requantises one head's LD projection
 * estimates to INT12 (the EPRE feeds its own outputs back) and takes
 * their LD QK^T, scaled by 1 / sqrt(d_head) and then by temp (two
 * separately rounded float multiplies; temp 1 changes no bit).
 *
 * @param q_est LD Q projection of the head (tokens x d_head)
 * @param k_est LD K projection of the head (tokens x d_head)
 * @param temp  score temperature (TransformerBlock::scoreTemp)
 */
Matrix predictScoreFromProjections(const Matrix &q_est,
                                   const Matrix &k_est, LodMode mode,
                                   SimdTier simd = defaultSimdTier(),
                                   float temp = 1.0f);

/** Combines per-head decisions into block-level projection needs. */
ProjectionNeeds combineNeeds(const std::vector<HeadDecision> &heads,
                             Index tokens);

} // namespace exion

#endif // EXION_SPARSITY_EAGER_PREDICTION_H_
