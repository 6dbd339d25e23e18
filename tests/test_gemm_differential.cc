/**
 * @file
 * Differential tests of the Blocked GEMM backend against Reference
 * through every executor path: each (benchmark x mode x quantize)
 * pipeline run, a cohort-of-N stacked run, and the serving engine
 * end-to-end must produce maxAbsDiff == 0 — the backend is a pure
 * wall-clock knob, never a numerics knob.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "exion/model/pipeline.h"
#include "exion/serve/batch_engine.h"
#include "exion/sparsity/cohort_executor.h"
#include "exion/tensor/ops.h"
#include "submit_all.h"

namespace exion
{
namespace
{

/** Bitwise equality: operator== would let -0.0 pass as +0.0. */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && (a.size() == 0
            || std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0);
}

SparseExecutor::Options
optionsFor(const ModelConfig &cfg, ExecMode mode, bool quantize,
           GemmBackend backend)
{
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor::Options opt =
        SparseExecutor::fromConfig(cfg, ffnr, ep, quantize);
    opt.gemm = backend;
    return opt;
}

Matrix
runPipeline(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
            GemmBackend backend, u64 seed)
{
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize, backend);
        return pipe.run(exec, seed);
    }
    SparseExecutor exec(optionsFor(pipe.config(), mode, quantize,
                                   backend));
    return pipe.run(exec, seed);
}

/** Short runs that still cross a dense/sparse FFN-Reuse boundary. */
ModelConfig
shortConfig(Benchmark b)
{
    ModelConfig cfg = makeConfig(b, Scale::Reduced);
    cfg.iterations = 3;
    cfg.ffnReuse.denseInterval = 1;
    return cfg;
}

/**
 * Every benchmark, every ablation mode, float and INT12: Blocked and
 * Reference executors must agree to the last bit over full pipeline
 * runs (randomised latents via the fixed per-case seed).
 */
TEST(GemmDifferentialTest, AllBenchmarksModesQuantLevels)
{
    const Benchmark benchmarks[] = {
        Benchmark::MLD,         Benchmark::MDM,
        Benchmark::EDGE,        Benchmark::MakeAnAudio,
        Benchmark::StableDiffusion, Benchmark::DiT,
        Benchmark::VideoCrafter2,
    };
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    u64 seed = 9000;
    for (Benchmark b : benchmarks) {
        const ModelConfig cfg = shortConfig(b);
        const DiffusionPipeline pipe(cfg);
        for (ExecMode mode : modes) {
            for (bool quantize : {false, true}) {
                SCOPED_TRACE(cfg.name + " mode " + execModeName(mode)
                             + (quantize ? " int12" : " float"));
                ++seed;
                const Matrix ref = runPipeline(
                    pipe, mode, quantize, GemmBackend::Reference, seed);
                const Matrix blk = runPipeline(
                    pipe, mode, quantize, GemmBackend::Blocked, seed);
                ASSERT_EQ(maxAbsDiff(ref, blk), 0.0);
                ASSERT_TRUE(bitIdentical(ref, blk));
            }
        }
    }
}

/**
 * Cohort-of-N on the Blocked backend vs solo runs on Reference: the
 * two orthogonal bit-identity guarantees (stacking and backend) must
 * compose.
 */
TEST(GemmDifferentialTest, CohortStackedBlockedMatchesSoloReference)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const DiffusionPipeline pipe(cfg);
    const Index n = 5;
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    for (ExecMode mode : modes) {
        SCOPED_TRACE(execModeName(mode));
        CohortExecutor exec(optionsFor(cfg, mode, /*quantize=*/false,
                                       GemmBackend::Blocked));
        CohortRun run(pipe, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < n; ++i)
            slots.push_back(run.join(4200 + 31 * i));
        while (!run.done())
            run.step();
        for (Index i = 0; i < n; ++i) {
            SCOPED_TRACE(::testing::Message() << "member " << i);
            const Matrix solo =
                runPipeline(pipe, mode, false, GemmBackend::Reference,
                            4200 + 31 * i);
            const Matrix stacked = run.takeResult(slots[i]);
            ASSERT_EQ(maxAbsDiff(solo, stacked), 0.0);
            ASSERT_TRUE(bitIdentical(solo, stacked));
        }
    }
}

/**
 * Engine end-to-end: identical request streams through a
 * Reference-backend engine and a Blocked-backend engine (with cohort
 * batching on, so the tall fast path is exercised) must deliver
 * bit-identical outputs and identical op accounting.
 */
TEST(GemmDifferentialTest, EngineBlockedMatchesReferenceEngine)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    std::vector<ServeRequest> requests;
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::Exion,
                              ExecMode::FfnReuseOnly, ExecMode::EpOnly};
    for (u64 i = 0; i < 8; ++i) {
        ServeRequest req;
        req.id = i;
        req.benchmark = cfg.benchmark;
        req.mode = modes[i % 4];
        req.quantize = i % 5 == 4;
        req.noiseSeed = 7700 + i;
        requests.push_back(req);
    }

    const auto run_with = [&](GemmBackend backend) {
        BatchEngine::Options opts;
        opts.workers = 2;
        opts.cohortBatching = true;
        opts.gemmBackend = backend;
        BatchEngine engine(opts);
        engine.addModel(cfg);
        return submitAll(engine, requests);
    };
    const std::vector<RequestResult> ref =
        run_with(GemmBackend::Reference);
    const std::vector<RequestResult> blk =
        run_with(GemmBackend::Blocked);
    ASSERT_EQ(ref.size(), blk.size());
    for (Index i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "request " << i);
        ASSERT_TRUE(ref[i].ok());
        ASSERT_TRUE(blk[i].ok());
        ASSERT_EQ(maxAbsDiff(ref[i].output, blk[i].output), 0.0);
        ASSERT_TRUE(bitIdentical(ref[i].output, blk[i].output));
        EXPECT_EQ(ref[i].stats.totalDense(), blk[i].stats.totalDense());
        EXPECT_EQ(ref[i].stats.totalExecuted(),
                  blk[i].stats.totalExecuted());
    }
}

} // namespace
} // namespace exion
