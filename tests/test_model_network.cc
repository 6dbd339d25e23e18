/**
 * @file
 * Tests for transformer blocks, networks, scheduler, pipeline, and the
 * analytic op counter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exion/common/rng.h"
#include "exion/model/network.h"
#include "exion/model/op_counter.h"
#include "exion/model/pipeline.h"
#include "exion/metrics/metrics.h"
#include "exion/model/scheduler.h"
#include "exion/tensor/ops.h"

namespace exion
{
namespace
{

TEST(TransformerBlock, ShapePreserved)
{
    Rng rng(1);
    TransformerBlock blk(0, 32, 4, 4, false, rng);
    DenseExecutor exec;
    Matrix x(6, 32);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix y = blk.forward(x, exec);
    EXPECT_EQ(y.rows(), 6u);
    EXPECT_EQ(y.cols(), 32u);
}

TEST(TransformerBlock, OpCountingMatchesAnalytic)
{
    Rng rng(2);
    const Index t = 10, d = 32;
    TransformerBlock blk(0, d, 4, 4, false, rng);
    DenseExecutor exec;
    Matrix x(t, d);
    x.fillNormal(rng, 0.0f, 1.0f);
    blk.forward(x, exec);

    StageConfig stage{t, d, 4, 4, 1, 0};
    const OpBreakdown expect = countBlockOps(stage, false);
    EXPECT_EQ(exec.stats().qkvOpsDense, expect.qkv);
    EXPECT_EQ(exec.stats().attnOpsDense, expect.attn);
    EXPECT_EQ(exec.stats().ffnOpsDense, expect.ffn);
}

TEST(TransformerBlock, GegluDoublesFirstLayer)
{
    StageConfig stage{8, 16, 2, 4, 1, 0};
    const OpBreakdown gelu_ops = countBlockOps(stage, false);
    const OpBreakdown geglu_ops = countBlockOps(stage, true);
    EXPECT_EQ(geglu_ops.ffn, gelu_ops.ffn * 3 / 2);
}

TEST(TransformerBlock, QuantizedCloseToFloat)
{
    Rng rng(3);
    TransformerBlock blk(0, 32, 4, 4, false, rng);
    DenseExecutor exact(false), quant(true);
    Matrix x(6, 32);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix y = blk.forward(x, exact);
    const Matrix yq = blk.forward(x, quant);
    EXPECT_LT(relativeError(y, yq), 0.05)
        << "INT12 block output diverged";
}

TEST(PoolUpsample, RoundTripShapes)
{
    Rng rng(4);
    Matrix x(16, 8);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix pooled = poolTokens(x, 4);
    EXPECT_EQ(pooled.rows(), 4u);
    const Matrix up = upsampleTokens(pooled, 4);
    EXPECT_EQ(up.rows(), 16u);
    // Pooling a constant matrix is exact.
    Matrix c(16, 8, 2.0f);
    EXPECT_EQ(upsampleTokens(poolTokens(c, 4), 4), c);
}

TEST(Network, ForwardShape)
{
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 4);
    DenoisingNetwork net(cfg);
    DenseExecutor exec;
    Matrix x(cfg.latentTokens, cfg.latentDim);
    Rng rng(5);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix eps = net.forward(x, 500, exec);
    EXPECT_EQ(eps.rows(), cfg.latentTokens);
    EXPECT_EQ(eps.cols(), cfg.latentDim);
}

TEST(Network, UNetWithStagesRuns)
{
    ModelConfig cfg = makeConfig(Benchmark::StableDiffusion,
                                 Scale::Reduced);
    DenoisingNetwork net(cfg);
    DenseExecutor exec;
    Matrix x(cfg.latentTokens, cfg.latentDim);
    Rng rng(6);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix eps = net.forward(x, 100, exec);
    EXPECT_EQ(eps.rows(), cfg.latentTokens);
    EXPECT_EQ(eps.cols(), cfg.latentDim);
    EXPECT_GT(frobeniusNorm(eps), 0.0);
}

TEST(Network, DeterministicAcrossInstances)
{
    const ModelConfig cfg = makeTinyConfig();
    DenoisingNetwork a(cfg), b(cfg);
    DenseExecutor ea, eb;
    Matrix x(cfg.latentTokens, cfg.latentDim);
    Rng rng(7);
    x.fillNormal(rng, 0.0f, 1.0f);
    EXPECT_EQ(a.forward(x, 10, ea), b.forward(x, 10, eb));
}

TEST(Network, TimestepChangesOutput)
{
    const ModelConfig cfg = makeTinyConfig();
    DenoisingNetwork net(cfg);
    DenseExecutor exec;
    Matrix x(cfg.latentTokens, cfg.latentDim);
    Rng rng(8);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Matrix e1 = net.forward(x, 10, exec);
    const Matrix e2 = net.forward(x, 900, exec);
    EXPECT_GT(maxAbsDiff(e1, e2), 1e-4);
}

TEST(Scheduler, TimestepsDescend)
{
    DdimScheduler sched(50);
    EXPECT_EQ(sched.inferenceSteps(), 50);
    for (int i = 1; i < 50; ++i)
        EXPECT_LT(sched.timestep(i), sched.timestep(i - 1));
    EXPECT_EQ(sched.timestep(49), 0);
}

TEST(Scheduler, AlphaBarDecreases)
{
    DdimScheduler sched(10);
    double prev = 1.0;
    for (int t = 0; t < 1000; t += 100) {
        const double ab = sched.alphaBar(t);
        EXPECT_LT(ab, prev);
        EXPECT_GT(ab, 0.0);
        prev = ab;
    }
}

TEST(Scheduler, PerfectNoisePredictionDenoises)
{
    // If eps_hat equals the true noise component, stepping reduces the
    // noise contribution exactly.
    DdimScheduler sched(10);
    Rng rng(9);
    Matrix x0(4, 4), noise(4, 4);
    x0.fillNormal(rng, 0.0f, 1.0f);
    noise.fillNormal(rng, 0.0f, 1.0f);
    const int t = sched.timestep(0);
    const double ab = sched.alphaBar(t);
    const Matrix x_t = add(
        scale(x0, static_cast<float>(std::sqrt(ab))),
        scale(noise, static_cast<float>(std::sqrt(1.0 - ab))));
    const Matrix x_next = sched.step(x_t, noise, 0);
    const int t_next = sched.timestep(1);
    const double ab_next = sched.alphaBar(t_next);
    const Matrix expect = add(
        scale(x0, static_cast<float>(std::sqrt(ab_next))),
        scale(noise, static_cast<float>(std::sqrt(1.0 - ab_next))));
    EXPECT_LT(maxAbsDiff(x_next, expect), 1e-4);
}

TEST(Pipeline, RunsAndIsDeterministic)
{
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 6);
    DiffusionPipeline pipe(cfg);
    DenseExecutor e1, e2;
    const Matrix out1 = pipe.run(e1, 42);
    const Matrix out2 = pipe.run(e2, 42);
    EXPECT_EQ(out1, out2);
    EXPECT_EQ(out1.rows(), cfg.latentTokens);
}

TEST(Pipeline, IterationHookFires)
{
    const ModelConfig cfg = makeTinyConfig(8, 16, 1, 5);
    DiffusionPipeline pipe(cfg);
    std::vector<int> seen;
    RunOptions opts;
    opts.onIteration = [&](int i, const Matrix &) { seen.push_back(i); };
    DenseExecutor exec;
    pipe.run(exec, opts);
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Pipeline, LatentEvolvesSmoothly)
{
    // The property FFN-Reuse exploits: adjacent iterations are close.
    const ModelConfig cfg = makeTinyConfig(8, 16, 2, 10);
    DiffusionPipeline pipe(cfg);
    std::vector<Matrix> latents;
    RunOptions opts;
    opts.onIteration = [&](int, const Matrix &x) {
        latents.push_back(x);
    };
    DenseExecutor exec;
    const Matrix out = pipe.run(exec, opts);
    ASSERT_EQ(latents.size(), 10u);
    // The hook sees each iteration's latent; the last is the output.
    EXPECT_EQ(latents.back(), out);
    for (std::size_t i = 2; i < latents.size(); ++i) {
        const double step_diff = frobeniusNorm(
            sub(latents[i], latents[i - 1]));
        const double norm = frobeniusNorm(latents[i]);
        EXPECT_LT(step_diff, norm) << "iteration " << i;
    }
}

TEST(OpCounter, DiTIsPureTransformer)
{
    const ModelConfig cfg = makeConfig(Benchmark::DiT, Scale::Full);
    const OpBreakdown ops = countOpsPerIteration(cfg);
    EXPECT_GT(ops.transformerShare(), 0.99);
}

TEST(OpCounter, UNetModelsHaveEtcShare)
{
    const ModelConfig cfg = makeConfig(Benchmark::StableDiffusion,
                                       Scale::Full);
    const OpBreakdown ops = countOpsPerIteration(cfg);
    EXPECT_GT(ops.etc, 0u);
    EXPECT_LT(ops.transformerShare(), 0.9);
    EXPECT_GT(ops.transformerShare(), 0.2);
}

TEST(OpCounter, FfnDominatesShortTokenModels)
{
    // Fig. 4: FFN layers are the transformer bottleneck for the
    // short-token diffusion models.
    for (Benchmark b : {Benchmark::MLD, Benchmark::DiT}) {
        const ModelConfig cfg = makeConfig(b, Scale::Full);
        const OpBreakdown ops = countOpsPerIteration(cfg);
        EXPECT_GT(ops.ffnShareOfTransformer(), 0.4)
            << benchmarkName(b);
        EXPECT_GT(ops.ffn, ops.attn) << benchmarkName(b);
    }
}

TEST(OpCounter, TotalsInPlausibleRange)
{
    // Order-of-magnitude anchors from Fig. 4.
    const OpCount mld =
        countOpsPerIteration(makeConfig(Benchmark::MLD, Scale::Full))
            .total();
    EXPECT_GT(mld, static_cast<OpCount>(5e7));
    EXPECT_LT(mld, static_cast<OpCount>(5e8));

    const OpCount dit =
        countOpsPerIteration(makeConfig(Benchmark::DiT, Scale::Full))
            .total();
    EXPECT_GT(dit, static_cast<OpCount>(1e11));
    EXPECT_LT(dit, static_cast<OpCount>(1e12));
}

} // namespace
} // namespace exion
