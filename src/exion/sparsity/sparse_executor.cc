#include "exion/sparsity/sparse_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exion/model/network.h"
#include "exion/tensor/ops.h"

namespace exion
{

SparseExecutor::SparseExecutor(const Options &opt)
    : opt_(opt),
      ffnReuse_(opt.ffnReuse, opt.quantize, opt.gemm, opt.simd, opt.tp),
      ownEpWeights_(opt.lodMode)
{
    EXION_ASSERT(opt.epWeights == nullptr
                     || opt.epWeights->mode() == opt.lodMode,
                 "borrowed EP weight images at another LOD depth");
}

EpWeightImages
epWeightImages(const TransformerBlock &blk, LodMode mode)
{
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    EpWeightImages img;
    img.mode = mode;
    img.wqk = QuantMatrix(d, 2 * d, QuantParams{1.0, IntWidth::Int12});
    img.scales.resize(2 * n_heads);
    const Matrix *weights[2] = {&blk.wq().weight(), &blk.wk().weight()};
    for (Index half = 0; half < 2; ++half) {
        for (Index h = 0; h < n_heads; ++h) {
            const QuantMatrix head = ldImage(
                QuantMatrix::fromFloat(sliceCols(*weights[half], h * dh, dh),
                                       IntWidth::Int12),
                mode);
            img.scales[half * n_heads + h] = head.scale();
            const Index c0 = half * d + h * dh;
            for (Index r = 0; r < d; ++r)
                std::copy(head.rowPtr(r), head.rowPtr(r) + dh,
                          &img.wqk(r, c0));
        }
    }
    return img;
}

EpWeightSet::EpWeightSet(const DenoisingNetwork &net, LodMode mode)
    : mode_(mode)
{
    blocks_.resize(net.numBlocks());
    for (Index i = 0; i < net.numBlocks(); ++i) {
        const TransformerBlock &blk = net.block(i);
        EXION_ASSERT(static_cast<Index>(blk.id()) < blocks_.size()
                         && !blocks_[blk.id()],
                     "network block ids must be distinct and dense");
        blocks_[blk.id()] = epWeightImages(blk, mode);
    }
}

const EpWeightImages &
EpWeightSet::at(const TransformerBlock &blk) const
{
    const Index id = static_cast<Index>(blk.id());
    EXION_ASSERT(id < blocks_.size() && blocks_[id],
                 "no EP weight images for block ", id);
    const EpWeightImages &img = *blocks_[id];
    EXION_ASSERT(img.wqk.rows() == blk.dModel()
                     && img.scales.size() == 2 * blk.nHeads(),
                 "EP weight images of block ", id,
                 " do not match its shape");
    return img;
}

const EpWeightImages &
EpWeightSet::images(const TransformerBlock &blk)
{
    const Index id = static_cast<Index>(blk.id());
    if (id >= blocks_.size())
        blocks_.resize(id + 1);
    if (!blocks_[id])
        blocks_[id] = epWeightImages(blk, mode_);
    return at(blk);
}

const EpWeightImages &
epImagesFor(const SparseExecutor::Options &opt, EpWeightSet &own,
            const TransformerBlock &blk)
{
    return opt.epWeights != nullptr ? opt.epWeights->at(blk)
                                    : own.images(blk);
}

SparseExecutor::Options
SparseExecutor::fromConfig(const ModelConfig &cfg, bool use_ffn_reuse,
                           bool use_ep, bool quantize, LodMode mode)
{
    Options opt;
    opt.useFfnReuse = use_ffn_reuse;
    opt.useEp = use_ep;
    opt.quantize = quantize;
    opt.lodMode = mode;
    opt.ffnReuse = cfg.ffnReuse;
    opt.ep = cfg.ep;
    return opt;
}

Matrix
SparseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    if (!opt_.useFfnReuse)
        return denseFfnImpl(blk, x_norm, opt_.quantize, stats(),
                            observers, opt_.gemm, opt_.simd, opt_.tp);
    return ffnReuse_.run(blk, x_norm, iteration(), stats(), observers);
}

Matrix
SparseExecutor::attention(const TransformerBlock &blk,
                          const Matrix &x_norm)
{
    if (!opt_.useEp)
        return denseAttentionImpl(blk, x_norm, opt_.quantize, stats(),
                                  observers, opt_.gemm, opt_.simd,
                                  opt_.tp);
    return epAttention(blk, x_norm);
}

namespace
{

/** Row-masked projection: rows with needed == 0 stay zero. */
Matrix
projectNeededRows(const Matrix &x, const Linear &proj,
                  const std::vector<u8> &needed, bool quantize,
                  GemmBackend backend, SimdTier simd,
                  const TpContext &tp)
{
    // Collect needed rows, project densely, scatter back. This keeps
    // the quantisation behaviour identical to the dense path.
    const Index n_needed = ProjectionNeeds::countNeeded(needed);
    if (n_needed == x.rows()) {
        // Every row needed: the packed operand would be x itself.
        Matrix projected = execWeightMatmul(x, proj, quantize, backend,
                                            simd, tp);
        addRowVector(projected, proj.bias());
        return projected;
    }
    Matrix out(x.rows(), proj.outDim());
    if (n_needed == 0)
        return out;

    Matrix packed(n_needed, x.cols());
    Index w = 0;
    for (Index r = 0; r < x.rows(); ++r) {
        if (!needed[r])
            continue;
        for (Index c = 0; c < x.cols(); ++c)
            packed(w, c) = x(r, c);
        ++w;
    }
    Matrix projected = execWeightMatmul(packed, proj, quantize,
                                        backend, simd, tp);
    addRowVector(projected, proj.bias());
    w = 0;
    for (Index r = 0; r < x.rows(); ++r) {
        if (!needed[r])
            continue;
        for (Index c = 0; c < out.cols(); ++c)
            out(r, c) = projected(w, c);
        ++w;
    }
    return out;
}

} // namespace

Matrix
SparseExecutor::epAttention(const TransformerBlock &blk,
                            const Matrix &x_norm)
{
    return epAttentionImpl(blk, x_norm,
                           epImagesFor(opt_, ownEpWeights_, blk), opt_.ep,
                           opt_.quantize, stats(), observers,
                           opt_.gemm, opt_.simd, opt_.tp);
}

void
predictBlockScores(const TransformerBlock &blk, const Matrix &x_norm,
                   const EpWeightImages &w_img, SimdTier simd,
                   const std::function<void(Index, Matrix &)> &onHead)
{
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    EXION_ASSERT(w_img.wqk.rows() == d && w_img.wqk.cols() == 2 * d
                     && w_img.scales.size() == 2 * n_heads,
                 "EP weight images for ", w_img.scales.size() / 2,
                 " heads of width ", w_img.wqk.rows(), ", block has ",
                 n_heads, " of width ", d);

    // Every head's Q and K LD projections run as one integer GEMM
    // against [Wq | Wk], each head's columns dequantised with
    // x.scale * head.scale: every column's sum is independent of the
    // others, so the bytes equal per-head GEMMs'.
    const QuantMatrix x_img =
        ldImage(QuantMatrix::fromFloat(x_norm, IntWidth::Int12),
                w_img.mode);
    std::vector<double> scales(2 * n_heads);
    for (Index b = 0; b < scales.size(); ++b)
        scales[b] = x_img.scale() * w_img.scales[b];
    const Matrix est = matmulQuantBlockScaledWith(
        x_img, w_img.wqk, scales, dh, GemmBackend::Blocked, simd);
    for (Index h = 0; h < n_heads; ++h) {
        Matrix scores = predictScoreFromProjections(
            sliceCols(est, h * dh, dh), sliceCols(est, d + h * dh, dh),
            w_img.mode, simd, static_cast<float>(blk.scoreTemp()));
        onHead(h, scores);
    }
}

Matrix
epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                const EpWeightImages &w_img, const EpConfig &ep,
                bool quantize, ExecStats &stats, ExecObservers &observers,
                GemmBackend backend, SimdTier simd, const TpContext &tp)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index n_heads = blk.nHeads();
    const SimdKernels &kr = simdKernels(simd);
    const float inv_sqrt = static_cast<float>(blk.scoreTemp())
        / std::sqrt(static_cast<float>(dh));

    // --- EPRE: predicted attention scores and skip decisions. ---
    std::vector<HeadDecision> decisions;
    decisions.reserve(n_heads);
    predictBlockScores(blk, x_norm, w_img, simd,
                       [&](Index h, const Matrix &predicted) {
        HeadDecision dec = decideFromPrediction(predicted, ep, simd);
        if (observers.onScoreMask)
            observers.onScoreMask(blk.id(), static_cast<int>(h),
                                  dec.keep);
        stats.scoreSparsitySum += dec.scoreSparsity();
        ++stats.scoreSparsitySamples;
        decisions.push_back(std::move(dec));
    });
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

    // --- Real projections, only for needed tokens (SDUE, INT12). ---
    const Matrix q = projectNeededRows(x_norm, blk.wq(),
                                       needs.qRowNeeded, quantize,
                                       backend, simd, tp);
    const Matrix k = projectNeededRows(x_norm, blk.wk(),
                                       needs.kRowNeeded, quantize,
                                       backend, simd, tp);
    const Matrix v = projectNeededRows(x_norm, blk.wv(),
                                       needs.vRowNeeded, quantize,
                                       backend, simd, tp);
    stats.qkvOpsDense += 3 * mmulOps(t, d, d);
    stats.qkvOpsExecuted += mmulOps(nq, d, d) + mmulOps(nk, d, d)
        + mmulOps(nv, d, d);

    // --- Real attention at kept positions only. ---
    // Kept scores are exact in every tier: the Fast tier's
    // reassociated transposed GEMM would change their bits.
    const SimdTier score_simd =
        simd == SimdTier::Fast ? SimdTier::Exact : simd;
    Matrix concat(t, d);
    std::vector<float> row_scores(t);
    std::vector<Index> kept_cols;
    kept_cols.reserve(t);
    for (Index h = 0; h < n_heads; ++h) {
        const HeadDecision &dec = decisions[h];

        // Every score of the head in one GEMM against K_h^T, read in
        // place from q and k: each element is then the golden chain
        // (+0.0f start, ascending k, one rounding per multiply and
        // add) in every backend, the same bits as a serial dot of
        // the two rows.
        const Matrix scores = matmulTransposedWith(
            viewBlock(q, 0, t, h * dh, dh), viewBlock(k, 0, t, h * dh, dh),
            backend, score_simd);

        OpCount kept_total = 0;
        for (Index r = 0; r < t; ++r) {
            if (dec.oneHot[r]) {
                // One-hot approximation: output is V at the argmax.
                const Index src = dec.oneHotArg[r];
                for (Index c = 0; c < dh; ++c)
                    concat(r, h * dh + c) = v(src, h * dh + c);
                continue;
            }
            kept_cols.clear();
            dec.keep.forEachSetBitInRow(
                r, [&](Index c) { kept_cols.push_back(c); });
            EXION_ASSERT(!kept_cols.empty(),
                         "non-one-hot row with empty keep set");

            // Scores at kept positions.
            const float *srow = scores.rowPtr(r);
            float max_v = -std::numeric_limits<float>::infinity();
            for (Index idx = 0; idx < kept_cols.size(); ++idx) {
                const float s = srow[kept_cols[idx]] * inv_sqrt;
                row_scores[idx] = s;
                max_v = std::max(max_v, s);
            }
            kept_total += kept_cols.size();

            // Softmax over kept entries.
            double denom = 0.0;
            for (Index idx = 0; idx < kept_cols.size(); ++idx) {
                row_scores[idx] = std::exp(row_scores[idx] - max_v);
                denom += row_scores[idx];
            }
            const float inv_denom = static_cast<float>(1.0 / denom);

            // Attention x V over kept entries, the dh-wide row of
            // accumulators held across every kept V row. Per output
            // element the terms add in ascending idx order from
            // +0.0f, with each probability weight rounded once first
            // — the left-associated golden chain.
            for (Index idx = 0; idx < kept_cols.size(); ++idx)
                row_scores[idx] *= inv_denom;
            kr.weightedRowSumF32(concat.rowPtr(r) + h * dh,
                                 v.rowPtr(0) + h * dh, v.rowStride(),
                                 kept_cols.data(), row_scores.data(),
                                 kept_cols.size(), dh);
        }
        stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
        stats.attnOpsExecuted += 2 * 2 * kept_total * dh;
    }

    // Output projection stays dense (all rows have outputs).
    Matrix out = execWeightMatmul(concat, blk.wo(), quantize,
                                  backend, simd, tp);
    addRowVector(out, blk.wo().bias());
    stats.attnOpsDense += mmulOps(t, d, d);
    stats.attnOpsExecuted += mmulOps(t, d, d);
    return out;
}

} // namespace exion
