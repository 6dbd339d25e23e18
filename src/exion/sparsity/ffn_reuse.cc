#include "exion/sparsity/ffn_reuse.h"

#include <algorithm>
#include <cmath>

#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

double
sparsityQuantile(std::span<const float> values, double target_sparsity)
{
    EXION_ASSERT(!values.empty(), "quantile of empty data");
    EXION_ASSERT(target_sparsity >= 0.0 && target_sparsity <= 1.0,
                 "sparsity target ", target_sparsity);
    std::vector<float> magnitudes(values.size());
    for (Index i = 0; i < values.size(); ++i)
        magnitudes[i] = std::abs(values[i]);
    const Index rank = std::min<Index>(
        values.size() - 1,
        static_cast<Index>(target_sparsity
                           * static_cast<double>(values.size())));
    std::nth_element(magnitudes.begin(), magnitudes.begin() + rank,
                     magnitudes.end());
    return magnitudes[rank];
}

FfnReuse::FfnReuse(const FfnReuseConfig &cfg, bool quantize,
                   GemmBackend backend, SimdTier simd, TpContext tp)
    : cfg_(cfg), quantize_(quantize), backend_(backend), simd_(simd),
      tp_(tp)
{
    EXION_ASSERT(cfg_.denseInterval >= 0, "dense interval ",
                 cfg_.denseInterval);
}

const FfnReuse::TransposedFfn1 &
FfnReuse::transposedFfn1(const TransformerBlock &blk)
{
    const auto [it, inserted] = w1tCache_.try_emplace(blk.id());
    if (inserted) {
        TransposedFfn1 &tw = it->second;
        if (const auto *at_rest = blk.ffn1AtRest()) {
            // Store-built block: borrow the at-rest transposed images
            // (shallow copies of views into the store). The store
            // snapshots transpose(W1) and its INT12 image with the
            // same deterministic quantisation, so these are
            // bit-identical to the live build below.
            tw.w1t = at_rest->w1t;
            tw.w1vt = at_rest->w1vt;
            if (quantize_) {
                tw.qw1t = at_rest->qw1t;
                tw.qw1vt = at_rest->qw1vt;
            }
        } else {
            tw.w1t = transpose(blk.ffn1().weight());
            if (blk.geglu())
                tw.w1vt = transpose(blk.ffn1Value().weight());
            if (quantize_) {
                tw.qw1t =
                    QuantMatrix::fromFloat(tw.w1t, IntWidth::Int12);
                if (blk.geglu())
                    tw.qw1vt =
                        QuantMatrix::fromFloat(tw.w1vt, IntWidth::Int12);
            }
        }
    }
    return it->second;
}

bool
FfnReuse::isDenseIteration(int iteration) const
{
    return iteration % (cfg_.denseInterval + 1) == 0;
}

const FfnReuseBlockState *
FfnReuse::state(int block_id) const
{
    const auto it = state_->blocks.find(block_id);
    return it == state_->blocks.end() || !it->second.initialized
        ? nullptr : &it->second;
}

void
FfnReuse::reset()
{
    state_->reset();
    // Weight transposes are keyed by block id; a reset may precede a
    // run against a different model, so drop them too.
    w1tCache_.clear();
}

Matrix
FfnReuse::run(const TransformerBlock &blk, const Matrix &x_norm,
              int iteration, ExecStats &stats, ExecObservers &observers)
{
    FfnReuseBlockState &st = state_->blocks[blk.id()];
    if (isDenseIteration(iteration) || !st.initialized)
        return runDense(blk, x_norm, stats, observers, st);
    return runSparse(blk, x_norm, stats, observers, st);
}

namespace
{

/** Computes the non-linear hidden activation densely. */
Matrix
denseHidden(const TransformerBlock &blk, const Matrix &x_norm,
            bool quantize, GemmBackend backend, SimdTier simd,
            const TpContext &tp)
{
    Matrix gate = execWeightMatmul(x_norm, blk.ffn1(), quantize,
                                   backend, simd, tp);
    addRowVector(gate, blk.ffn1().bias());
    Matrix hidden = gelu(gate);
    if (blk.geglu()) {
        Matrix value = execWeightMatmul(x_norm, blk.ffn1Value(),
                                        quantize, backend, simd, tp);
        addRowVector(value, blk.ffn1Value().bias());
        for (Index i = 0; i < hidden.size(); ++i)
            hidden.data()[i] *= value.data()[i];
    }
    return hidden;
}

/**
 * psum + h * W2 where h is zero outside the mask's set positions,
 * accumulating only those positions: per output element the masked
 * contributions add in ascending column order from +0.0f — exactly
 * the dense product's accumulation chain with its zero terms elided,
 * which is bit-neutral for finite operands (a zero activation times a
 * finite weight contributes +/-0.0, and a +0.0-started accumulator is
 * never at -0.0 when one arrives) — then psum joins through the same
 * add() as the dense formulation. Bit-identical to
 * add(psum, matmul(h, w2)) on finite data. This is where the FFN
 * sparsity shortcut lives now that the golden matmul computes every
 * term (ops.h accumulation contract): at the paper's ~80-90% reuse
 * sparsity it does ~nnz*d work instead of t*hid*d, matching the
 * ffnOpsExecuted accounting.
 *
 * Under tensor parallelism the output columns are partitioned by the
 * slice plan: each slice runs the same whole-row mask walk but sweeps
 * its axpy only across its own column window of W2, into a private
 * partial buffer, and the partials are pasted back in ascending slice
 * order. Every output element's accumulation chain lives entirely
 * inside one slice, so tp=N is bit-identical to the solo sweep.
 */
Matrix
addMaskedProduct(const Matrix &psum, const Matrix &h,
                 const Bitmask2D &mask, const Matrix &w2,
                 SimdTier simd, const TpContext &tp)
{
    const SimdKernels &kr = simdKernels(simd);
    const Index n = w2.cols();
    const SlicePlan plan = SlicePlan::make(n, tp.nSlices);
    if (!plan.parallel()) {
        Matrix prod(h.rows(), n);
        for (Index r = 0; r < h.rows(); ++r) {
            float *out = prod.rowPtr(r);
            const float *hrow = h.rowPtr(r);
            // Word-at-a-time mask walk; each set column contributes
            // one axpy sweep across the output row — the same
            // ascending-c term order per output element as the dense
            // product.
            mask.forEachSetBitInRow(r, [&](Index c) {
                kr.axpyF32(out, w2.rowPtr(c), hrow[c], n);
            });
        }
        return add(psum, prod);
    }

    std::vector<Matrix> parts(plan.slices());
    runSliced(tp, plan.slices(), [&](int s) {
        const SliceRange &sr = plan.range(s);
        Matrix part(h.rows(), sr.n);
        if (!sr.empty()) {
            for (Index r = 0; r < h.rows(); ++r) {
                float *out = part.rowPtr(r);
                const float *hrow = h.rowPtr(r);
                mask.forEachSetBitInRow(r, [&](Index c) {
                    kr.axpyF32(out, w2.rowPtr(c) + sr.c0, hrow[c],
                               sr.n);
                });
            }
        }
        parts[s] = std::move(part);
    });

    Matrix prod(h.rows(), n);
    for (Index r = 0; r < h.rows(); ++r) {
        float *out = prod.rowPtr(r);
        for (int s = 0; s < plan.slices(); ++s) {
            const SliceRange &sr = plan.range(s);
            if (sr.empty())
                continue;
            std::copy_n(parts[s].rowPtr(r), sr.n, out + sr.c0);
        }
    }
    return add(psum, prod);
}

} // namespace

Matrix
FfnReuse::runDense(const TransformerBlock &blk, const Matrix &x_norm,
                   ExecStats &stats, ExecObservers &observers,
                   FfnReuseBlockState &st)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    const OpCount ffn1_dense =
        (blk.geglu() ? 2 : 1) * mmulOps(t, d, hid);

    Matrix hidden = denseHidden(blk, x_norm, quantize_, backend_, simd_,
                                tp_);
    stats.ffnOpsDense += ffn1_dense;
    stats.ffnOpsExecuted += ffn1_dense;

    if (observers.onFfnHidden)
        observers.onFfnHidden(blk.id(), hidden);

    // Calibrate theta and build the recompute mask with the threshold
    // compare kernel, 64 columns per call. theta is the quantile of
    // float magnitudes — exactly representable as float — so the
    // kernel's float compare decides identically to the promoted
    // double compare |h| > theta.
    st.theta = sparsityQuantile(hidden.data(), cfg_.targetSparsity);
    st.mask = Bitmask2D(t, hid);
    const SimdKernels &kr = simdKernels(simd_);
    const float ftheta = static_cast<float>(st.theta);
    for (Index r = 0; r < t; ++r) {
        const float *hrow = hidden.rowPtr(r);
        for (Index c0 = 0; c0 < hid; c0 += 64) {
            const Index nb = std::min<Index>(64, hid - c0);
            st.mask.writeRowBits(
                r, c0, kr.absGreaterMask64(hrow + c0, ftheta, nb),
                nb);
        }
    }

    if (observers.onFfnMask)
        observers.onFfnMask(blk.id(), st.mask, true);

    // Split H into reuse and recompute regions; cache the reuse
    // region's contribution through the second FFN layer.
    Matrix h_reuse = hidden;
    Matrix h_keep(t, hid);
    st.mask.forEachSetBit([&](Index r, Index c) {
        h_reuse(r, c) = 0.0f;
        h_keep(r, c) = hidden(r, c);
    });
    st.psumSparse = execWeightMatmul(h_reuse, blk.ffn2(), quantize_,
                                     backend_, simd_, tp_);
    st.hiddenCache = std::move(hidden);
    st.initialized = true;

    // The recompute region is sparse (1 - targetSparsity of H); in
    // the float path accumulate only its masked positions.
    Matrix out = quantize_
        ? add(st.psumSparse,
              execWeightMatmul(h_keep, blk.ffn2(), quantize_,
                               backend_, simd_, tp_))
        : addMaskedProduct(st.psumSparse, h_keep, st.mask,
                           blk.ffn2().weight(), simd_, tp_);
    addRowVector(out, blk.ffn2().bias());
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += mmulOps(t, hid, d);
    return out;
}

Matrix
FfnReuse::runSparse(const TransformerBlock &blk, const Matrix &x_norm,
                    ExecStats &stats, ExecObservers &observers,
                    FfnReuseBlockState &st)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();
    EXION_ASSERT(st.mask.rows() == t && st.mask.cols() == hid,
                 "FFN-Reuse state shape mismatch for block ", blk.id());

    const u64 nnz = st.mask.countOnes();
    const double sparsity = st.mask.sparsity();
    stats.ffnSparsitySum += sparsity;
    ++stats.ffnSparsitySamples;
    if (observers.onFfnMask)
        observers.onFfnMask(blk.id(), st.mask, false);

    // Recompute only the masked elements of the hidden activation,
    // dotting each x row against the cached transpose's contiguous
    // weight rows. Exact tier keeps the golden serial float chain
    // (the transpose only removes the stride — same terms, same
    // order); Fast swaps in the reassociated dotF32 kernel. The
    // integer dot is exact in any order, so the quant path uses the
    // vector kernel in every tier.
    Matrix h_keep(t, hid);
    const bool geglu = blk.geglu();
    const SimdKernels &kr = simdKernels(simd_);
    const TransposedFfn1 &tw = transposedFfn1(blk);
    if (quantize_) {
        const QuantMatrix qx =
            QuantMatrix::fromFloat(x_norm, IntWidth::Int12);
        const double s1 = qx.scale() * tw.qw1t.scale();
        const double s1v =
            geglu ? qx.scale() * tw.qw1vt.scale() : 0.0;
        for (Index r = 0; r < t; ++r) {
            const i32 *xrow = qx.rowPtr(r);
            st.mask.forEachSetBitInRow(r, [&](Index c) {
                const i64 acc = kr.dotI32(xrow, tw.qw1t.rowPtr(c), d);
                float h = geluScalar(static_cast<float>(acc * s1)
                                     + blk.ffn1().bias()(0, c));
                if (geglu) {
                    const i64 accv =
                        kr.dotI32(xrow, tw.qw1vt.rowPtr(c), d);
                    h *= static_cast<float>(accv * s1v)
                        + blk.ffn1Value().bias()(0, c);
                }
                h_keep(r, c) = h;
            });
        }
    } else {
        const auto dot = simd_ == SimdTier::Fast ? kr.dotF32
                                                 : simd::dotF32Scalar;
        for (Index r = 0; r < t; ++r) {
            const float *xrow = x_norm.rowPtr(r);
            st.mask.forEachSetBitInRow(r, [&](Index c) {
                float h = geluScalar(dot(xrow, tw.w1t.rowPtr(c), d)
                                     + blk.ffn1().bias()(0, c));
                if (geglu)
                    h *= dot(xrow, tw.w1vt.rowPtr(c), d)
                        + blk.ffn1Value().bias()(0, c);
                h_keep(r, c) = h;
            });
        }
    }

    const OpCount per_element = (geglu ? 2 : 1);
    stats.ffnOpsDense += (geglu ? 2 : 1) * mmulOps(t, d, hid);
    stats.ffnOpsExecuted += 2 * per_element * nnz * d;

    // Second layer: accumulate only the recomputed contributions onto
    // the cached partial sums — via the masked positions in the float
    // path, so the executed work tracks nnz instead of the dense
    // shape.
    Matrix out = quantize_
        ? add(st.psumSparse,
              execWeightMatmul(h_keep, blk.ffn2(), quantize_,
                               backend_, simd_, tp_))
        : addMaskedProduct(st.psumSparse, h_keep, st.mask,
                           blk.ffn2().weight(), simd_, tp_);
    addRowVector(out, blk.ffn2().bias());
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += 2 * nnz * d;
    return out;
}

} // namespace exion
