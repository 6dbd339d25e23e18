/**
 * @file
 * Tensor-parallel differential tests: every projection GEMM
 * column-sliced across a slice plan, each slice computed as its own
 * task, must reproduce the solo run bit for bit (maxAbsDiff == 0 and
 * byte-identical buffers) — across execution modes, quantisation,
 * GEMM backends, SIMD tiers, slice counts, slice runners, cohort
 * stacking and the serving engine's tensorParallel option.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "exion/common/threadpool.h"
#include "exion/model/pipeline.h"
#include "exion/serve/batch_engine.h"
#include "exion/sparsity/cohort_executor.h"
#include "exion/tensor/matmul_slice.h"
#include "exion/tensor/ops.h"
#include "submit_all.h"

namespace exion
{
namespace
{

SparseExecutor::Options
optionsFor(const ModelConfig &cfg, ExecMode mode, bool quantize,
           GemmBackend backend = defaultGemmBackend(),
           SimdTier simd = defaultSimdTier(), const TpContext &tp = {})
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor::Options opt =
        SparseExecutor::fromConfig(cfg, ffnr, ep, quantize);
    opt.gemm = backend;
    opt.simd = simd;
    opt.tp = tp;
    return opt;
}

struct RunResult
{
    Matrix output;
    ExecStats stats;
};

/** One full denoising run with the given slice context ({} = solo). */
RunResult
runWith(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
        u64 seed, GemmBackend backend = defaultGemmBackend(),
        SimdTier simd = defaultSimdTier(), const TpContext &tp = {})
{
    RunResult out;
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize, backend, simd, tp);
        out.output = pipe.run(exec, seed);
        out.stats = exec.stats();
    } else {
        SparseExecutor exec(
            optionsFor(pipe.config(), mode, quantize, backend, simd, tp));
        out.output = pipe.run(exec, seed);
        out.stats = exec.stats();
    }
    return out;
}

/** maxAbsDiff == 0 *and* the raw buffers are byte-identical (the
    memcmp also distinguishes -0.0f / NaN payloads the float compare
    would miss). */
void
expectBitIdentical(const Matrix &tp, const Matrix &solo,
                   const char *label)
{
    ASSERT_EQ(tp.rows(), solo.rows()) << label;
    ASSERT_EQ(tp.cols(), solo.cols()) << label;
    double max_abs_diff = 0.0;
    for (Index e = 0; e < tp.size(); ++e) {
        const double d = std::fabs(static_cast<double>(tp.data()[e])
                                   - static_cast<double>(solo.data()[e]));
        if (d > max_abs_diff) {
            max_abs_diff = d;
        }
    }
    EXPECT_EQ(max_abs_diff, 0.0) << label;
    EXPECT_EQ(std::memcmp(tp.data().data(), solo.data().data(),
                          static_cast<size_t>(tp.size())
                              * sizeof(float)),
              0)
        << label;
}

/** Op accounting must be slice-invariant: TP splits the work, it
    never changes what counts as executed. */
void
expectSameStats(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.qkvOpsDense, b.qkvOpsDense);
    EXPECT_EQ(a.qkvOpsExecuted, b.qkvOpsExecuted);
    EXPECT_EQ(a.attnOpsDense, b.attnOpsDense);
    EXPECT_EQ(a.attnOpsExecuted, b.attnOpsExecuted);
    EXPECT_EQ(a.ffnOpsDense, b.ffnOpsDense);
    EXPECT_EQ(a.ffnOpsExecuted, b.ffnOpsExecuted);
    EXPECT_EQ(a.ffnSparsitySum, b.ffnSparsitySum);
    EXPECT_EQ(a.ffnSparsitySamples, b.ffnSparsitySamples);
    EXPECT_EQ(a.scoreSparsitySum, b.scoreSparsitySum);
    EXPECT_EQ(a.scoreSparsitySamples, b.scoreSparsitySamples);
    EXPECT_EQ(a.qRowsSkipped, b.qRowsSkipped);
    EXPECT_EQ(a.kColsSkipped, b.kColsSkipped);
    EXPECT_EQ(a.vColsSkipped, b.vColsSkipped);
}

ModelConfig
tinyConfig()
{
    ModelConfig cfg = makeTinyConfig(8, 16, 2, 4);
    // Cross the dense/sparse FFN-Reuse boundary every iteration.
    cfg.ffnReuse.denseInterval = 1;
    return cfg;
}

const ExecMode kModes[] = {ExecMode::Dense, ExecMode::EpOnly,
                           ExecMode::FfnReuseOnly, ExecMode::Exion};

/**
 * The core gate: every mode x quantize x slice count, slices forked
 * onto a real ThreadPool, must be bit-identical to solo — output and
 * stats.
 */
TEST(TensorParallel, AllModesMatchSoloOnPool)
{
    const ModelConfig cfg = tinyConfig();
    const DiffusionPipeline pipe(cfg);
    ThreadPool pool(4);
    PoolSliceRunner runner(pool);

    for (ExecMode mode : kModes) {
        for (bool quantize : {false, true}) {
            const RunResult solo = runWith(pipe, mode, quantize, 77);
            for (int n : {2, 3, 4}) {
                SCOPED_TRACE(execModeName(mode) + std::string(" q=")
                             + (quantize ? "1" : "0") + " tp="
                             + std::to_string(n));
                const TpContext tp{n, &runner};
                const RunResult par = runWith(
                    pipe, mode, quantize, 77, defaultGemmBackend(),
                    defaultSimdTier(), tp);
                expectBitIdentical(par.output, solo.output, "output");
                expectSameStats(par.stats, solo.stats);
            }
        }
    }
}

/** Bit-identity must hold under every GEMM backend and every
    bit-exact SIMD tier, not just the defaults. */
TEST(TensorParallel, EveryBackendAndTierMatchesSolo)
{
    const ModelConfig cfg = tinyConfig();
    const DiffusionPipeline pipe(cfg);
    ThreadPool pool(3);
    PoolSliceRunner runner(pool);
    const TpContext tp{3, &runner};

    for (GemmBackend backend :
         {GemmBackend::Reference, GemmBackend::Blocked}) {
        for (SimdTier simd : {SimdTier::Scalar, SimdTier::Exact}) {
            for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
                SCOPED_TRACE(std::string(gemmBackendName(backend)) + "/"
                             + simdTierName(simd) + "/"
                             + execModeName(mode));
                const RunResult solo =
                    runWith(pipe, mode, false, 5, backend, simd);
                const RunResult par =
                    runWith(pipe, mode, false, 5, backend, simd, tp);
                expectBitIdentical(par.output, solo.output, "output");
                expectSameStats(par.stats, solo.stats);
            }
        }
    }
}

/** Reduced-scale paper benchmarks, full EXION mode: transformer
    stacks, UNet ResBlocks / GEGLU / pooling, DiT. */
TEST(TensorParallel, BenchmarksMatchSolo)
{
    ThreadPool pool(4);
    PoolSliceRunner runner(pool);
    const TpContext tp{4, &runner};

    for (Benchmark b : {Benchmark::MLD, Benchmark::MakeAnAudio,
                        Benchmark::DiT}) {
        ModelConfig cfg = makeConfig(b, Scale::Reduced);
        cfg.iterations = 3;
        cfg.ffnReuse.denseInterval = 1;
        const DiffusionPipeline pipe(cfg);
        for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
            SCOPED_TRACE(cfg.name + " " + execModeName(mode));
            const RunResult solo = runWith(pipe, mode, false, 123);
            const RunResult par =
                runWith(pipe, mode, false, 123, defaultGemmBackend(),
                        defaultSimdTier(), tp);
            expectBitIdentical(par.output, solo.output, "output");
            expectSameStats(par.stats, solo.stats);
        }
    }
}

/** The runner is a transport, not a math change: serial runner,
    pool runner and a null runner (inline fallback) all agree. */
TEST(TensorParallel, RunnerChoiceIsInvisible)
{
    const ModelConfig cfg = tinyConfig();
    const DiffusionPipeline pipe(cfg);
    const RunResult solo = runWith(pipe, ExecMode::Exion, false, 9);

    SerialSliceRunner serial;
    const RunResult ser =
        runWith(pipe, ExecMode::Exion, false, 9, defaultGemmBackend(),
                defaultSimdTier(), TpContext{4, &serial});
    expectBitIdentical(ser.output, solo.output, "serial runner");

    ThreadPool pool(2);
    PoolSliceRunner pooled(pool);
    const RunResult par =
        runWith(pipe, ExecMode::Exion, false, 9, defaultGemmBackend(),
                defaultSimdTier(), TpContext{4, &pooled});
    expectBitIdentical(par.output, solo.output, "pool runner");

    // Active slice count but no runner: runSliced computes inline.
    const RunResult inlined =
        runWith(pipe, ExecMode::Exion, false, 9, defaultGemmBackend(),
                defaultSimdTier(), TpContext{4, nullptr});
    expectBitIdentical(inlined.output, solo.output, "null runner");
}

/** More slices than weight columns: trailing slices go empty, the
    merge must still cover every column exactly once. */
TEST(TensorParallel, MoreSlicesThanColumnsMatchesSolo)
{
    const ModelConfig cfg = tinyConfig(); // d_model = 16
    const DiffusionPipeline pipe(cfg);
    ThreadPool pool(2);
    PoolSliceRunner runner(pool);

    for (bool quantize : {false, true}) {
        const RunResult solo = runWith(pipe, ExecMode::Exion, quantize, 31);
        const RunResult par = runWith(
            pipe, ExecMode::Exion, quantize, 31, defaultGemmBackend(),
            defaultSimdTier(), TpContext{64, &runner});
        SCOPED_TRACE(quantize ? "quantized" : "float");
        expectBitIdentical(par.output, solo.output, "output");
        expectSameStats(par.stats, solo.stats);
    }
}

/** TP composes with cohort stacking: a cohort-of-N stepping with a
    slice context reproduces each member's solo (tp=1) run. */
TEST(TensorParallel, CohortWithTpMatchesSoloMembers)
{
    const ModelConfig cfg = tinyConfig();
    const DiffusionPipeline pipe(cfg);
    ThreadPool pool(4);
    PoolSliceRunner runner(pool);
    const TpContext tp{4, &runner};

    for (ExecMode mode : kModes) {
        CohortExecutor exec(optionsFor(cfg, mode, /*quantize=*/false,
                                       defaultGemmBackend(),
                                       defaultSimdTier(), tp));
        CohortRun run(pipe, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < 3; ++i) {
            slots.push_back(run.join(500 + 11 * i));
        }
        while (!run.done()) {
            run.step();
        }
        for (Index i = 0; i < 3; ++i) {
            SCOPED_TRACE(execModeName(mode) + std::string(" member ")
                         + std::to_string(i));
            const RunResult solo =
                runWith(pipe, mode, false, 500 + 11 * i);
            expectBitIdentical(run.takeResult(slots[i]), solo.output,
                               "output");
            expectSameStats(exec.slotContext(slots[i]).stats,
                            solo.stats);
        }
    }
}

/** Engine-level: a tensorParallel=4 engine serves the same bytes as
    a tensorParallel=1 engine, through both the sequential reference
    path and the concurrent pool path. */
TEST(TensorParallel, EngineMatchesSoloEngine)
{
    const ModelConfig cfg = tinyConfig();

    std::vector<ServeRequest> reqs;
    for (u64 i = 0; i < 4; ++i) {
        ServeRequest r;
        r.id = i + 1;
        r.benchmark = cfg.benchmark;
        r.mode = i % 2 == 0 ? ExecMode::Exion : ExecMode::Dense;
        r.quantize = i == 3;
        r.noiseSeed = 900 + i;
        reqs.push_back(r);
    }

    BatchEngine::Options solo_opts;
    solo_opts.workers = 2;
    BatchEngine solo(solo_opts);
    solo.addModel(cfg);
    const std::vector<RequestResult> want = solo.runSequential(reqs);

    BatchEngine::Options tp_opts;
    tp_opts.workers = 2;
    tp_opts.tensorParallel = 4;
    BatchEngine tped(tp_opts);
    tped.addModel(cfg);

    const std::vector<RequestResult> seq = tped.runSequential(reqs);
    const std::vector<RequestResult> par = submitAll(tped, reqs);
    ASSERT_EQ(seq.size(), want.size());
    ASSERT_EQ(par.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        ASSERT_TRUE(want[i].ok());
        ASSERT_TRUE(seq[i].ok());
        ASSERT_TRUE(par[i].ok());
        expectBitIdentical(seq[i].output, want[i].output, "sequential");
        expectBitIdentical(par[i].output, want[i].output, "batch");
        expectSameStats(seq[i].stats, want[i].stats);
        expectSameStats(par[i].stats, want[i].stats);
    }
}

/** TP + cohort batching together in the engine stay bit-identical. */
TEST(TensorParallel, EngineTpComposesWithCohortBatching)
{
    const ModelConfig cfg = tinyConfig();

    std::vector<ServeRequest> reqs;
    for (u64 i = 0; i < 4; ++i) {
        ServeRequest r;
        r.id = i + 1;
        r.benchmark = cfg.benchmark;
        r.mode = ExecMode::Exion;
        r.noiseSeed = 40 + i;
        reqs.push_back(r);
    }

    BatchEngine::Options solo_opts;
    solo_opts.workers = 1;
    BatchEngine solo(solo_opts);
    solo.addModel(cfg);
    const std::vector<RequestResult> want = solo.runSequential(reqs);

    BatchEngine::Options opts;
    opts.workers = 2;
    opts.tensorParallel = 2;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);
    const std::vector<RequestResult> got = submitAll(engine, reqs);

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        ASSERT_TRUE(got[i].ok());
        expectBitIdentical(got[i].output, want[i].output, "output");
        expectSameStats(got[i].stats, want[i].stats);
    }
}

/** tensorParallel < 1 warns and clamps to solo behaviour. */
TEST(TensorParallel, EngineClampsNonPositiveSliceCount)
{
    const ModelConfig cfg = tinyConfig();
    ServeRequest r;
    r.benchmark = cfg.benchmark;
    r.mode = ExecMode::Exion;
    r.noiseSeed = 3;

    BatchEngine::Options solo_opts;
    solo_opts.workers = 1;
    BatchEngine solo(solo_opts);
    solo.addModel(cfg);
    const RequestResult want = solo.runSequential({r})[0];

    BatchEngine::Options opts;
    opts.workers = 1;
    opts.tensorParallel = -3;
    BatchEngine engine(opts);
    engine.addModel(cfg);
    const RequestResult got = engine.runSequential({r})[0];
    ASSERT_TRUE(got.ok());
    expectBitIdentical(got.output, want.output, "output");
}

} // namespace
} // namespace exion
