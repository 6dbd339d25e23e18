#include "exion/model/executor.h"

#include <cmath>

#include "exion/model/transformer_block.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

void
ExecStats::merge(const ExecStats &other)
{
    qkvOpsDense += other.qkvOpsDense;
    qkvOpsExecuted += other.qkvOpsExecuted;
    attnOpsDense += other.attnOpsDense;
    attnOpsExecuted += other.attnOpsExecuted;
    ffnOpsDense += other.ffnOpsDense;
    ffnOpsExecuted += other.ffnOpsExecuted;
    ffnSparsitySum += other.ffnSparsitySum;
    ffnSparsitySamples += other.ffnSparsitySamples;
    scoreSparsitySum += other.scoreSparsitySum;
    scoreSparsitySamples += other.scoreSparsitySamples;
    qRowsTotal += other.qRowsTotal;
    qRowsSkipped += other.qRowsSkipped;
    kColsTotal += other.kColsTotal;
    kColsSkipped += other.kColsSkipped;
    vColsTotal += other.vColsTotal;
    vColsSkipped += other.vColsSkipped;
}

Matrix
execMatmul(const Matrix &a, const Matrix &b, bool quantize,
           GemmBackend backend, SimdTier simd, const TpContext &tp)
{
    if (!quantize)
        return matmulSliced(a, b, tp, backend, simd);
    // Quantise whole operands once — a slice is a window onto the
    // full quantisation domain, so tp=N stays bit-identical to solo.
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    return matmulQuantSliced(qa, qb, tp, backend, simd);
}

Matrix
execWeightMatmul(const Matrix &x, const Linear &lin, bool quantize,
                 GemmBackend backend, SimdTier simd, const TpContext &tp)
{
    if (!quantize)
        return matmulSliced(x, lin.weight(), tp, backend, simd);
    const QuantMatrix qx = QuantMatrix::fromFloat(x, IntWidth::Int12);
    if (lin.hasQuantWeight())
        return matmulQuantSliced(qx, lin.quantWeight(), tp, backend,
                                 simd);
    return matmulQuantSliced(
        qx, QuantMatrix::fromFloat(lin.weight(), IntWidth::Int12), tp,
        backend, simd);
}

void
denseAttentionCoreInto(const TransformerBlock &blk, const Matrix &q,
                       const Matrix &k, const Matrix &v, Index r0,
                       Index rows, bool quantize, ExecStats &stats,
                       Matrix &concat, GemmBackend backend,
                       SimdTier simd)
{
    const Index t = rows;
    const Index dh = blk.headDim();
    const float inv_sqrt = static_cast<float>(blk.scoreTemp())
        / std::sqrt(static_cast<float>(dh));

    for (Index h = 0; h < blk.nHeads(); ++h) {
        // The score GEMM reads Q_h and K_h in place through their row
        // strides; V_h is copied because quantising it needs a
        // contiguous operand.
        const Matrix qh = viewBlock(q, r0, t, h * dh, dh);
        const Matrix kh = viewBlock(k, r0, t, h * dh, dh);
        const Matrix vh = sliceBlock(v, r0, t, h * dh, dh);

        Matrix scores =
            scale(matmulTransposedWith(qh, kh, backend, simd),
                  inv_sqrt);
        const Matrix probs = softmax(scores);
        const Matrix out_h =
            execMatmul(probs, vh, quantize, backend, simd);
        for (Index r = 0; r < t; ++r)
            for (Index c = 0; c < dh; ++c)
                concat(r0 + r, h * dh + c) = out_h(r, c);

        stats.attnOpsDense += mmulOps(t, dh, t) + mmulOps(t, t, dh);
        stats.attnOpsExecuted += mmulOps(t, dh, t) + mmulOps(t, t, dh);
    }
}

Matrix
denseAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                   bool quantize, ExecStats &stats,
                   ExecObservers &observers, GemmBackend backend,
                   SimdTier simd, const TpContext &tp)
{
    (void)observers;
    const Index t = x_norm.rows();
    const Index d = blk.dModel();

    Matrix q =
        execWeightMatmul(x_norm, blk.wq(), quantize, backend, simd, tp);
    addRowVector(q, blk.wq().bias());
    Matrix k =
        execWeightMatmul(x_norm, blk.wk(), quantize, backend, simd, tp);
    addRowVector(k, blk.wk().bias());
    Matrix v =
        execWeightMatmul(x_norm, blk.wv(), quantize, backend, simd, tp);
    addRowVector(v, blk.wv().bias());

    stats.qkvOpsDense += 3 * mmulOps(t, d, d);
    stats.qkvOpsExecuted += 3 * mmulOps(t, d, d);
    stats.qRowsTotal += t;
    stats.kColsTotal += t;
    stats.vColsTotal += t;

    Matrix concat(t, d);
    denseAttentionCoreInto(blk, q, k, v, 0, t, quantize, stats,
                           concat, backend, simd);

    Matrix out =
        execWeightMatmul(concat, blk.wo(), quantize, backend, simd, tp);
    addRowVector(out, blk.wo().bias());
    stats.attnOpsDense += mmulOps(t, d, d);
    stats.attnOpsExecuted += mmulOps(t, d, d);
    return out;
}

Matrix
denseFfnImpl(const TransformerBlock &blk, const Matrix &x_norm,
             bool quantize, ExecStats &stats, ExecObservers &observers,
             GemmBackend backend, SimdTier simd, const TpContext &tp)
{
    const Index t = x_norm.rows();
    const Index d = blk.dModel();
    const Index hid = blk.ffnHidden();

    Matrix gate = execWeightMatmul(x_norm, blk.ffn1(), quantize,
                                   backend, simd, tp);
    addRowVector(gate, blk.ffn1().bias());
    stats.ffnOpsDense += mmulOps(t, d, hid);
    stats.ffnOpsExecuted += mmulOps(t, d, hid);

    Matrix hidden;
    if (blk.geglu()) {
        Matrix value = execWeightMatmul(x_norm, blk.ffn1Value(),
                                        quantize, backend, simd, tp);
        addRowVector(value, blk.ffn1Value().bias());
        stats.ffnOpsDense += mmulOps(t, d, hid);
        stats.ffnOpsExecuted += mmulOps(t, d, hid);
        hidden = gelu(gate);
        for (Index i = 0; i < hidden.size(); ++i)
            hidden.data()[i] *= value.data()[i];
    } else {
        hidden = gelu(gate);
    }

    if (observers.onFfnHidden)
        observers.onFfnHidden(blk.id(), hidden);

    Matrix out = execWeightMatmul(hidden, blk.ffn2(), quantize,
                                  backend, simd, tp);
    addRowVector(out, blk.ffn2().bias());
    stats.ffnOpsDense += mmulOps(t, hid, d);
    stats.ffnOpsExecuted += mmulOps(t, hid, d);
    return out;
}

Matrix
DenseExecutor::attention(const TransformerBlock &blk, const Matrix &x_norm)
{
    return denseAttentionImpl(blk, x_norm, quantize_, stats(), observers,
                              backend_, simd_, tp_);
}

Matrix
DenseExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    return denseFfnImpl(blk, x_norm, quantize_, stats(), observers,
                        backend_, simd_, tp_);
}

} // namespace exion
