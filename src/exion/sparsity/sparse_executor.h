/**
 * @file
 * The EXION execution strategy: FFN-Reuse + eager prediction.
 *
 * One executor covers all ablation points of the evaluation
 * (EXION_Base / _EP / _FFNR / _All) through its Options flags.
 */

#ifndef EXION_SPARSITY_SPARSE_EXECUTOR_H_
#define EXION_SPARSITY_SPARSE_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/sparsity/ffn_reuse.h"

namespace exion
{

/**
 * Eager prediction's weight operands for one block: the signed LOD
 * images of every head's Wq and Wk column slice, each slice
 * quantised to INT12 with its own scale.
 */
struct EpWeightImages
{
    std::vector<LdImage> wq; //!< per head, d_model x d_head
    std::vector<LdImage> wk; //!< per head, d_model x d_head
};

/** Builds a block's EpWeightImages at one LOD depth. */
EpWeightImages epWeightImages(const TransformerBlock &blk, LodMode mode);

/**
 * Per-executor EpWeightImages, built on a block's first EP call and
 * reused by every later iteration. Weights are immutable for a block
 * id, and an executor runs one model at one LOD depth, so the block
 * id is the key (the pattern of FfnReuse's transposed FFN-1 cache).
 * Executors that never run EP never build an entry.
 */
class EpWeightCache
{
  public:
    explicit EpWeightCache(LodMode mode) : mode_(mode) {}

    /** The block's images, built on first use. */
    const EpWeightImages &images(const TransformerBlock &blk);

  private:
    LodMode mode_;
    std::unordered_map<int, EpWeightImages> blocks_;
};

/**
 * Block executor applying EXION's software-level optimisations.
 */
class SparseExecutor : public BlockExecutor
{
  public:
    /** Feature selection mirroring the paper's ablations. */
    struct Options
    {
        bool useFfnReuse = true;
        bool useEp = true;
        bool quantize = false;
        LodMode lodMode = LodMode::TwoStep;
        FfnReuseConfig ffnReuse{};
        EpConfig ep{};
        /**
         * GEMM backend for every dense MMUL this executor issues
         * (dense fallbacks, FFN-Reuse dense iterations, EP's packed
         * projections and output projection). Bit-identical across
         * backends; a pure wall-clock knob.
         */
        GemmBackend gemm = defaultGemmBackend();
        /**
         * SIMD tier for the sparse hot-path kernels (EP compare
         * scans, log-domain MACs, kept-position attention, FFN-Reuse
         * loops) and the dense MMULs above. Scalar and Exact are
         * bit-identical; Fast reassociates float reductions.
         */
        SimdTier simd = defaultSimdTier();
        /**
         * Tensor-parallel slice context for the tall weight GEMMs
         * (QKV / out-proj / FFN projections). Sparsity decisions —
         * thresholds, recompute masks, EP keep sets — are always
         * taken on whole logical outputs; slicing only forks the
         * projection columns, so tp=N is bit-identical to solo.
         */
        TpContext tp{};
    };

    explicit SparseExecutor(const Options &opt);

    /** Options derived from a model config (Table I knobs). */
    static Options fromConfig(const ModelConfig &cfg,
                              bool use_ffn_reuse, bool use_ep,
                              bool quantize,
                              LodMode mode = LodMode::TwoStep);

    Matrix attention(const TransformerBlock &blk,
                     const Matrix &x_norm) override;
    Matrix ffn(const TransformerBlock &blk, const Matrix &x_norm) override;

    /** The FFN-Reuse engine (inspectable state). */
    FfnReuse &ffnReuse() { return ffnReuse_; }

    /**
     * Binds all per-request state in one call: the execution context
     * (iteration + stats) and the FFN-Reuse bundle.
     */
    void bindRequestState(ExecContext &ctx, FfnReuseState &ffn)
    {
        bindContext(ctx);
        ffnReuse_.bindState(ffn);
    }

    /** Active options. */
    const Options &options() const { return opt_; }

    /** GEMM backend used for dense MMULs (Options::gemm). */
    GemmBackend gemmBackend() const override { return opt_.gemm; }

    /** SIMD tier used for kernels (Options::simd). */
    SimdTier simdTier() const override { return opt_.simd; }

    /** Slice context for tall projection GEMMs (Options::tp). */
    TpContext tpContext() const override { return opt_.tp; }

  private:
    Matrix epAttention(const TransformerBlock &blk, const Matrix &x_norm);

    Options opt_;
    FfnReuse ffnReuse_;
    EpWeightCache epWeights_;
};

/**
 * Eager-prediction attention on one request's activation rows.
 *
 * Stateless across iterations (all skip decisions derive from x_norm
 * alone), so cohort executors run it per member segment with that
 * member's stats/observers — bit-identical to a solo SparseExecutor.
 *
 * @param x_norm    normalised block input (tokens x dModel)
 * @param w_img     the block's EP weight images; their LOD depth is
 *                  the score prediction's
 * @param ep        q_th / top-k configuration
 * @param quantize  route real MMULs through INT12 operands
 */
Matrix epAttentionImpl(const TransformerBlock &blk, const Matrix &x_norm,
                       const EpWeightImages &w_img, const EpConfig &ep,
                       bool quantize, ExecStats &stats,
                       ExecObservers &observers,
                       GemmBackend backend = defaultGemmBackend(),
                       SimdTier simd = defaultSimdTier(),
                       const TpContext &tp = {});

} // namespace exion

#endif // EXION_SPARSITY_SPARSE_EXECUTOR_H_
