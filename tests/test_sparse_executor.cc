/**
 * @file
 * Tests for the combined EXION execution strategy (FFN-Reuse + EP).
 */

#include <gtest/gtest.h>

#include "exion/common/rng.h"
#include "exion/metrics/metrics.h"
#include "exion/model/pipeline.h"
#include "exion/sparsity/sparse_executor.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

SparseExecutor::Options
baseOptions()
{
    SparseExecutor::Options opt;
    opt.useFfnReuse = false;
    opt.useEp = false;
    opt.quantize = false;
    opt.ffnReuse = {3, 0.9};
    opt.ep = {0.5, 0.5};
    return opt;
}

TEST(SparseExecutor, DisabledFeaturesMatchDense)
{
    Rng rng(1);
    TransformerBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(10, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    DenseExecutor dense;
    SparseExecutor sparse(baseOptions());
    EXPECT_EQ(blk.forward(x, dense), blk.forward(x, sparse));
}

TEST(SparseExecutor, EpKeepAllMatchesDenseClosely)
{
    // k = 1 and an unreachable q_th disable all skips; the only
    // difference is the kept-position arithmetic path.
    Rng rng(2);
    TransformerBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(12, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    opt.ep = {1e9, 1.0};
    DenseExecutor dense;
    SparseExecutor sparse(opt);
    const Matrix a = blk.forward(x, dense);
    const Matrix b = blk.forward(x, sparse);
    EXPECT_LT(relativeError(a, b), 1e-4);
}

TEST(SparseExecutor, EpSkipsReduceExecutedOps)
{
    Rng rng(3);
    TransformerBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(24, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    opt.ep = {0.4, 0.25};
    SparseExecutor sparse(opt);
    blk.forward(x, sparse);
    const ExecStats &s = sparse.stats();
    EXPECT_LT(s.attnOpsExecuted, s.attnOpsDense);
    EXPECT_LE(s.qkvOpsExecuted, s.qkvOpsDense);
    EXPECT_GT(s.scoreSparsitySamples, 0u);
    EXPECT_GT(s.meanScoreSparsity(), 0.4);
}

TEST(SparseExecutor, EpOutputStaysClose)
{
    Rng rng(4);
    TransformerBlock blk(0, 32, 4, 4, false, rng);
    Matrix x(16, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    opt.ep = {2.0, 0.6}; // moderate pruning
    DenseExecutor dense;
    SparseExecutor sparse(opt);
    const Matrix a = blk.forward(x, dense);
    const Matrix b = blk.forward(x, sparse);
    // Top-k keeps the softmax mass carriers; outputs stay correlated.
    EXPECT_GT(cosineSimilarity(a, b), 0.98);
}

TEST(SparseExecutor, ScoreMaskObserverSeesOneMaskPerHead)
{
    Rng rng(5);
    TransformerBlock blk(3, 32, 4, 4, false, rng);
    Matrix x(8, 32);
    x.fillNormal(rng, 0.0f, 1.0f);

    auto opt = baseOptions();
    opt.useEp = true;
    SparseExecutor sparse(opt);
    int masks = 0;
    sparse.observers.onScoreMask = [&](int block, int head,
                                       const Bitmask2D &keep) {
        EXPECT_EQ(block, 3);
        EXPECT_LT(head, 4);
        EXPECT_EQ(keep.rows(), 8u);
        EXPECT_EQ(keep.cols(), 8u);
        ++masks;
    };
    blk.forward(x, sparse);
    EXPECT_EQ(masks, 4);
}

TEST(SparseExecutor, FullPipelineAllOptimisations)
{
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 12);
    DiffusionPipeline pipe(cfg);

    DenseExecutor vanilla;
    const Matrix ref = pipe.run(vanilla, 7);

    auto opt = SparseExecutor::fromConfig(cfg, true, true, false);
    opt.ep = {1.0, 0.6};
    SparseExecutor exion(opt);
    const Matrix out = pipe.run(exion, 7);

    EXPECT_GT(psnr(ref, out), 15.0);
    EXPECT_GT(cosineSimilarity(ref, out), 0.9);

    const ExecStats &s = exion.stats();
    EXPECT_LT(s.totalExecuted(), s.totalDense());
    EXPECT_GT(s.ffnSparsitySamples, 0u);
}

TEST(SparseExecutor, AblationOrderingOnWork)
{
    // More optimisations -> fewer executed ops, same dense baseline.
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 8);
    auto run_with = [&](bool ffnr, bool ep) {
        DiffusionPipeline pipe(cfg);
        auto opt = SparseExecutor::fromConfig(cfg, ffnr, ep, false);
        opt.ep = {0.7, 0.4};
        opt.ffnReuse = {3, 0.9};
        SparseExecutor exec(opt);
        pipe.run(exec, 7);
        return exec.stats();
    };
    const ExecStats base = run_with(false, false);
    const ExecStats ep_only = run_with(false, true);
    const ExecStats ffnr_only = run_with(true, false);
    const ExecStats all = run_with(true, true);

    EXPECT_EQ(base.totalDense(), all.totalDense());
    EXPECT_LT(ep_only.totalExecuted(), base.totalExecuted());
    EXPECT_LT(ffnr_only.totalExecuted(), base.totalExecuted());
    EXPECT_LT(all.totalExecuted(), ep_only.totalExecuted());
    EXPECT_LT(all.totalExecuted(), ffnr_only.totalExecuted());
}

TEST(SparseExecutor, QuantizedVariantStillAccurate)
{
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 8);
    DiffusionPipeline pipe(cfg);
    DenseExecutor vanilla;
    const Matrix ref = pipe.run(vanilla, 7);

    auto opt = SparseExecutor::fromConfig(cfg, true, true, true);
    opt.ep = {1.0, 0.6};
    SparseExecutor exion(opt);
    const Matrix out = pipe.run(exion, 7);
    EXPECT_GT(psnr(ref, out), 12.0);
}

TEST(SparseExecutor, TsLodNotWorseThanLodOnPipeline)
{
    // Fig. 15's system-level claim. With our untrained (diffuse)
    // attention the end-to-end margin is small and seed-dependent,
    // so the pipeline check is non-inferiority; the decisive
    // mechanism test (ranking accuracy) lives in test_log_domain and
    // bench_fig15's direct-measurement table.
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 10);
    DiffusionPipeline pipe(cfg);
    DenseExecutor vanilla;
    const Matrix ref = pipe.run(vanilla, 7);

    auto run_mode = [&](LodMode mode) {
        auto opt = SparseExecutor::fromConfig(cfg, false, true, false,
                                              mode);
        opt.ep = {0.8, 0.3};
        SparseExecutor exec(opt);
        return pipe.run(exec, 7);
    };
    const double psnr_lod = psnr(ref, run_mode(LodMode::Single));
    const double psnr_ts = psnr(ref, run_mode(LodMode::TwoStep));
    EXPECT_GT(psnr_ts, psnr_lod - 1.5);
    EXPECT_GT(psnr_ts, 10.0);
}

TEST(SparseExecutor, BorrowedEpWeightSetMatchesOwnImages)
{
    // A set built up front from the network holds every block's
    // images, equal to a per-block build; an executor borrowing it
    // runs the same bytes and stats as one building its own.
    const ModelConfig cfg = makeTinyConfig(8, 32, 2, 12);
    DiffusionPipeline pipe(cfg);
    const DenoisingNetwork &net = pipe.network();
    for (LodMode mode : {LodMode::Single, LodMode::TwoStep}) {
        const EpWeightSet shared(net, mode);
        for (Index i = 0; i < net.numBlocks(); ++i) {
            const EpWeightImages &got = shared.at(net.block(i));
            const EpWeightImages want = epWeightImages(net.block(i), mode);
            EXPECT_EQ(got.scales, want.scales);
            ASSERT_EQ(got.wqk.size(), want.wqk.size());
            for (Index r = 0; r < want.wqk.rows(); ++r)
                for (Index c = 0; c < want.wqk.cols(); ++c)
                    ASSERT_EQ(got.wqk(r, c), want.wqk(r, c));
        }

        auto opt = SparseExecutor::fromConfig(cfg, true, true, false, mode);
        SparseExecutor own(opt);
        opt.epWeights = &shared;
        SparseExecutor borrowing(opt);
        const Matrix a = pipe.run(own, 7);
        const Matrix b = pipe.run(borrowing, 7);
        EXPECT_EQ(maxAbsDiff(a, b), 0.0);
        EXPECT_EQ(own.stats().scoreSparsitySum,
                  borrowing.stats().scoreSparsitySum);
        EXPECT_EQ(own.stats().attnOpsExecuted,
                  borrowing.stats().attnOpsExecuted);
    }
}

} // namespace
} // namespace exion
