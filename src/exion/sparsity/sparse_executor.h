/**
 * @file
 * The EXION execution strategy: FFN-Reuse + eager prediction.
 *
 * One executor covers all ablation points of the evaluation
 * (EXION_Base / _EP / _FFNR / _All) through its Options flags.
 */

#ifndef EXION_SPARSITY_SPARSE_EXECUTOR_H_
#define EXION_SPARSITY_SPARSE_EXECUTOR_H_

#include <functional>
#include <optional>
#include <vector>

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/sparsity/ffn_reuse.h"

namespace exion
{

class DenoisingNetwork;

/**
 * Eager prediction's weight operands for one block, laid out so every
 * head's Q and K LD projections run as one integer GEMM: the signed
 * LOD images of [Wq | Wk], each head's Wq and Wk column slice
 * quantised to INT12 with its own scale.
 */
struct EpWeightImages
{
    LodMode mode = LodMode::TwoStep;
    /**
     * d_model x 2 d_model images: columns [h dh, (h+1) dh) hold head
     * h's Wq slice, columns d_model + [h dh, (h+1) dh) its Wk slice.
     * The matrix's own scale is unused; see scales.
     */
    QuantMatrix wqk;
    /** Per dh-wide column block of wqk: the Wq heads', then the Wk
        heads' INT12 scales (2 nHeads). */
    std::vector<double> scales;
};

/** Builds a block's EpWeightImages at one LOD depth. */
EpWeightImages epWeightImages(const TransformerBlock &blk, LodMode mode);

/**
 * A model's EpWeightImages at one LOD depth, indexed by block id.
 *
 * A set built from a network holds every block's images up front and
 * is read-only afterwards, so any number of executors on any threads
 * can borrow it: BatchEngine builds one per registered model and
 * hands it to every executor it makes (SparseExecutor::Options::
 * epWeights). An executor given no set fills its own one block at a
 * time on first use (images()), as weights are immutable for a block
 * id within one model.
 */
class EpWeightSet
{
  public:
    /** An empty set, filled by images(). */
    explicit EpWeightSet(LodMode mode) : mode_(mode) {}

    /** Every block of net, built now. */
    EpWeightSet(const DenoisingNetwork &net, LodMode mode);

    /** LOD depth of every image in the set. */
    LodMode mode() const { return mode_; }

    /** The block's images. @pre the set holds them */
    const EpWeightImages &at(const TransformerBlock &blk) const;

    /** The block's images, built on first use. Not thread-safe. */
    const EpWeightImages &images(const TransformerBlock &blk);

  private:
    LodMode mode_;
    std::vector<std::optional<EpWeightImages>> blocks_; //!< by id
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
        /**
         * A shared, prebuilt EpWeightSet at lodMode to borrow (it
         * must outlive the executor). Null: the executor builds its
         * own images on each block's first EP call.
         */
        const EpWeightSet *epWeights = nullptr;
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
    EpWeightSet ownEpWeights_; //!< used when opt_.epWeights is null
};

/** The EP weight images of blk an executor with options opt runs:
    opt.epWeights' when set, own's (built on first use) otherwise. */
const EpWeightImages &epImagesFor(const SparseExecutor::Options &opt,
                                  EpWeightSet &own,
                                  const TransformerBlock &blk);

/**
 * Eager prediction of every head's attention score for one block —
 * the EPRE half of epAttentionImpl. All heads' Q and K LD projections
 * run as one integer GEMM of x's image against w_img.wqk
 * (matmulQuantBlockScaledWith, each head's columns with
 * x.scale * head.scale), then each head goes through
 * predictScoreFromProjections and the block's score temperature.
 *
 * @param onHead called with (head, its predicted tokens x tokens
 *               score) in head order; the matrix is the callee's to
 *               read (or move from) until it returns
 */
void predictBlockScores(const TransformerBlock &blk, const Matrix &x_norm,
                        const EpWeightImages &w_img, SimdTier simd,
                        const std::function<void(Index, Matrix &)> &onHead);

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
