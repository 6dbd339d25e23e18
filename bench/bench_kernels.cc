/**
 * @file
 * Microbenchmarks of the hot kernels: log-domain products, eager
 * prediction at EP's per-head shapes, one whole EP attention block
 * and one head's skip decision, CVG block merging, bitmask
 * extraction, quantised matmul and the dense GEMM backends. Not a
 * paper artefact; standard performance tracking for the library
 * itself.
 *
 * Two build modes:
 *  - With Google Benchmark (EXION_HAVE_GBENCH): the usual
 *    benchmark-registered suite.
 *  - Without it: a self-timed fallback (best-of-N wall clock per
 *    kernel) so CI environments without libbenchmark still measure
 *    kernels instead of silently skipping the target.
 *
 * Both modes run the GEMM backend comparison on the paper-scale tall
 * cohort MMULs (a stacked cohort of 8 x 8-token members against
 * full-scale MLD weight shapes) and **exit nonzero if the Blocked
 * backend does not reach Reference throughput** — the regression gate
 * for the cache-blocked kernel.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "exion/accel/functional_device.h"
#include "exion/common/rng.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/sparsity/log_domain.h"
#include "exion/sparsity/mask_synth.h"
#include "exion/sparsity/sparse_executor.h"
#include "exion/tensor/gemm.h"
#include "exion/tensor/ops.h"

#ifdef EXION_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace exion
{
namespace
{

/**
 * Paper-scale tall cohort shapes: 8 members x 8 tokens stacked into
 * 64 activation rows against the full-scale MLD projection (256x256)
 * and FFN (256x1024, 1024x256) weights.
 */
struct GemmShape
{
    const char *name;
    Index m, k, n;
};

constexpr GemmShape kTallShapes[] = {
    {"qkv_64x256x256", 64, 256, 256},
    {"ffn1_64x256x1024", 64, 256, 1024},
    {"ffn2_64x1024x256", 64, 1024, 256},
};

/**
 * The FFN-1 GEMMs of the other two benchmark workloads at their real
 * shapes (tokens x d_model x 4 d_model): reduced StableDiffusion's
 * 128-token stage and reduced MDM. Timed beside the tall shapes; not
 * part of the gate.
 */
constexpr GemmShape kWorkloadFfnShapes[] = {
    {"sd_ffn1_128x48x192", 128, 48, 192},
    {"mdm_ffn1_48x64x256", 48, 64, 256},
};

/** BM_GemmTall's rows: the tall shapes, then the workload FFN-1
    shapes. */
constexpr Index kGemmRowCount =
    std::size(kTallShapes) + std::size(kWorkloadFfnShapes);

const GemmShape &
gemmRowShape(Index i)
{
    return i < std::size(kTallShapes)
        ? kTallShapes[i]
        : kWorkloadFfnShapes[i - std::size(kTallShapes)];
}

/**
 * A * B^T shapes (m x k x n with B n x k): two square 256-deep score
 * blocks, then the per-head attention-score shapes of the three
 * benchmark workloads (tokens x d_head x tokens): full-scale MLD,
 * reduced MDM and reduced StableDiffusion's 128-token stage.
 */
constexpr GemmShape kScoreShapes[] = {
    {"rows_64x256x64", 64, 256, 64},
    {"rows_128x256x128", 128, 256, 128},
    {"mld_head_8x64x8", 8, 64, 8},
    {"mdm_head_48x16x48", 48, 16, 48},
    {"sd_head_128x12x128", 128, 12, 128},
};

/** How a score row is computed: one backend, and its tier. */
struct ScoreVariant
{
    const char *name;
    GemmBackend backend;
    SimdTier simd;
};

constexpr ScoreVariant kScoreVariants[] = {
    {"reference", GemmBackend::Reference, SimdTier::Exact},
    {"blocked_exact", GemmBackend::Blocked, SimdTier::Exact},
    {"blocked_fast", GemmBackend::Blocked, SimdTier::Fast},
};

/**
 * Eager prediction's real per-head shapes (tokens x d_model x d_head,
 * as m x k x n): the reduced StableDiffusion 128-token stage, whose
 * d_head of 12 sits below every vector width, and full-scale MLD.
 */
constexpr GemmShape kEpShapes[] = {
    {"ep_predict_head/128x48x12", 128, 48, 12},
    {"ep_predict_head/8x256x64", 8, 256, 64},
};

/** One head's INT12 predictHeadScore operands for an EP shape. */
struct EpOperands
{
    QuantMatrix x, wq, wk;
};

EpOperands
epOperands(const GemmShape &s)
{
    Rng rng(9);
    Matrix x(s.m, s.k), wq(s.k, s.n), wk(s.k, s.n);
    x.fillNormal(rng, 0.0f, 1.0f);
    wq.fillNormal(rng, 0.0f, 0.2f);
    wk.fillNormal(rng, 0.0f, 0.2f);
    return {QuantMatrix::fromFloat(x, IntWidth::Int12),
            QuantMatrix::fromFloat(wq, IntWidth::Int12),
            QuantMatrix::fromFloat(wk, IntWidth::Int12)};
}

/**
 * One EP attention block (epAttentionImpl, TS-LOD, Blocked GEMMs) at
 * reduced StableDiffusion's two stages with its EP knobs (80% kept),
 * and at reduced DiT's stage with its knobs (5% kept): the low-keep
 * shape where scoring every position by GEMM does the most surplus
 * work.
 */
struct EpBlockShape
{
    const char *name;
    Index tokens, dModel, heads;
    EpConfig ep;
};

constexpr EpBlockShape kEpBlockShapes[] = {
    {"ep_attention_block/128x48h4", 128, 48, 4, {0.8, 0.8}},
    {"ep_attention_block/32x96h4", 32, 96, 4, {0.8, 0.8}},
    {"ep_attention_block/32x96h4_topk0.05", 32, 96, 4, {0.15, 0.05}},
};

/** A block, its input and its cached EP weight images. */
struct EpBlock
{
    Rng rng{10};
    TransformerBlock blk;
    Matrix x;
    EpWeightImages img;

    explicit EpBlock(const EpBlockShape &s)
        : blk(0, s.dModel, s.heads, 4, true, rng), x(s.tokens, s.dModel),
          img(epWeightImages(blk, LodMode::TwoStep))
    {
        x.fillNormal(rng, 0.0f, 1.0f);
    }

    Matrix
    run(const EpConfig &ep)
    {
        ExecStats stats;
        ExecObservers observers;
        return epAttentionImpl(blk, x, img, ep, false, stats, observers,
                               GemmBackend::Blocked);
    }
};

/** A 128 x 128 predicted score for ep_decide_head (80% kept). */
Matrix
decideScores()
{
    Rng rng(11);
    Matrix p(128, 128);
    p.fillNormal(rng, 0.0f, 1.0f);
    return p;
}

constexpr EpConfig kDecideEp{0.8, 0.8};

/** Keeps timed results observable without Google Benchmark's
    DoNotOptimize. */
volatile float g_sink = 0.0f;

/**
 * Best-of-N wall-clock seconds for one A*B with the given backend.
 * Best-of (not mean) because a scheduling hiccup only ever adds time.
 */
double
timeMatmul(const Matrix &a, const Matrix &b, GemmBackend backend,
           int reps)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const Matrix c = matmulWith(a, b, backend);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
        g_sink = g_sink + c(0, 0);
    }
    return best;
}

/**
 * The regression gate shared by both build modes: Blocked must reach
 * Reference throughput on the tall cohort MMULs, summed over the
 * three shapes (best-of-reps each, so one noisy run cannot flip the
 * verdict).
 *
 * @return true when Blocked >= Reference throughput
 */
bool
gateBlockedGemm(int reps)
{
    Rng rng(42);
    double ref_total = 0.0;
    double blocked_total = 0.0;
    std::printf("\n== GEMM backend gate: paper-scale tall cohort "
                "MMULs (best of %d) ==\n",
                reps);
    for (const GemmShape &s : kTallShapes) {
        Matrix a(s.m, s.k), b(s.k, s.n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const double ref =
            timeMatmul(a, b, GemmBackend::Reference, reps);
        const double blocked =
            timeMatmul(a, b, GemmBackend::Blocked, reps);
        ref_total += ref;
        blocked_total += blocked;
        std::printf("%-20s reference %8.3f ms   blocked %8.3f ms   "
                    "speedup %.2fx\n",
                    s.name, ref * 1e3, blocked * 1e3, ref / blocked);
    }
    std::printf("%-20s reference %8.3f ms   blocked %8.3f ms   "
                "speedup %.2fx\n",
                "total", ref_total * 1e3, blocked_total * 1e3,
                ref_total / blocked_total);
    if (blocked_total > ref_total) {
        std::fprintf(stderr,
                     "error: Blocked GEMM backend is slower than "
                     "Reference on the tall cohort MMULs\n");
        return false;
    }
    return true;
}

} // namespace
} // namespace exion

#ifdef EXION_HAVE_GBENCH

namespace exion
{
namespace
{

void
BM_LdProductTwoStep(benchmark::State &state)
{
    Rng rng(1);
    std::vector<i32> a(1024), b(1024);
    for (int i = 0; i < 1024; ++i) {
        a[i] = static_cast<i32>(rng.uniformInt(4096)) - 2048;
        b[i] = static_cast<i32>(rng.uniformInt(4096)) - 2048;
    }
    for (auto _ : state) {
        i64 acc = 0;
        for (int i = 0; i < 1024; ++i)
            acc += ldProduct(a[i], b[i], LodMode::TwoStep);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LdProductTwoStep);

void
BM_LdMatmul(benchmark::State &state)
{
    const Index n = state.range(0);
    Rng rng(2);
    Matrix a(n, n), b(n, n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    for (auto _ : state) {
        Matrix c = ldMatmul(qa, qb, LodMode::TwoStep);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_LdMatmul)->Arg(32)->Arg(64);

/** One head's eager prediction (TS-LOD) at EP's real shapes. */
void
BM_EpPredictHead(benchmark::State &state)
{
    const GemmShape &shape = kEpShapes[state.range(0)];
    const EpOperands op = epOperands(shape);
    for (auto _ : state) {
        Matrix p = predictHeadScore(op.x, op.wq, op.wk, LodMode::TwoStep);
        benchmark::DoNotOptimize(p.data().data());
    }
    state.SetLabel(shape.name);
}
BENCHMARK(BM_EpPredictHead)->Arg(0)->Arg(1);

/** One whole EP attention block (see kEpBlockShapes). */
void
BM_EpAttentionBlock(benchmark::State &state)
{
    const EpBlockShape &shape = kEpBlockShapes[state.range(0)];
    EpBlock block(shape);
    for (auto _ : state) {
        Matrix out = block.run(shape.ep);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetLabel(shape.name);
}
BENCHMARK(BM_EpAttentionBlock)->Arg(0)->Arg(1)->Arg(2);

/** One head's skip decision from a 128-token predicted score. */
void
BM_EpDecideHead(benchmark::State &state)
{
    const Matrix p = decideScores();
    for (auto _ : state) {
        HeadDecision dec = decideFromPrediction(p, kDecideEp);
        benchmark::DoNotOptimize(dec.oneHot.data());
    }
    state.SetLabel("ep_decide_head/128");
}
BENCHMARK(BM_EpDecideHead);

void
BM_QuantMatmul(benchmark::State &state)
{
    const Index n = state.range(0);
    const GemmBackend backend = state.range(1) == 0
        ? GemmBackend::Reference
        : GemmBackend::Blocked;
    Rng rng(3);
    Matrix a(n, n), b(n, n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    for (auto _ : state) {
        Matrix c = matmulQuantWith(qa, qb, backend);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_QuantMatmul)
    ->ArgsProduct({{64, 128}, {0, 1}})
    ->ArgNames({"n", "blocked"});

/** Dense float GEMM across backends on the tall cohort shapes and
    the workloads' FFN-1 shapes. */
void
BM_GemmTall(benchmark::State &state)
{
    const GemmShape &shape = gemmRowShape(state.range(0));
    const GemmBackend backend = state.range(1) == 0
        ? GemmBackend::Reference
        : GemmBackend::Blocked;
    Rng rng(7);
    Matrix a(shape.m, shape.k), b(shape.k, shape.n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        Matrix c = matmulWith(a, b, backend);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * shape.m * shape.k
                            * shape.n);
    state.SetLabel(std::string(shape.name) + "/"
                   + gemmBackendName(backend));
}
BENCHMARK(BM_GemmTall)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->ArgNames({"shape", "blocked"});

/** A * B^T (attention scores) per kScoreShapes x kScoreVariants. */
void
BM_GemmTransposed(benchmark::State &state)
{
    const GemmShape &shape = kScoreShapes[state.range(0)];
    const ScoreVariant &variant = kScoreVariants[state.range(1)];
    Rng rng(8);
    Matrix a(shape.m, shape.k), b(shape.n, shape.k);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        Matrix c = matmulTransposedWith(a, b, variant.backend,
                                        variant.simd);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * shape.m * shape.k
                            * shape.n);
    state.SetLabel(std::string(shape.name) + "/" + variant.name);
}
BENCHMARK(BM_GemmTransposed)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}})
    ->ArgNames({"shape", "variant"});

void
BM_ConMergeGroup(benchmark::State &state)
{
    const double density = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(4);
    FfnMaskParams params;
    params.density = density;
    params.deadColFraction = 0.3;
    params.hotColFraction = 0.02;
    const Bitmask2D mask = synthFfnMask(16, 1024, params, rng);
    ConMergePipeline pipeline;
    for (auto _ : state) {
        GroupResult group = pipeline.processGroup(mask, 0);
        benchmark::DoNotOptimize(group.positionsUsed);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ConMergeGroup)->Arg(3)->Arg(10)->Arg(30);

void
BM_SparseMatmulViaConMerge(benchmark::State &state)
{
    Rng rng(5);
    Matrix input(64, 64), weight(64, 256);
    input.fillNormal(rng, 0.0f, 1.0f);
    weight.fillNormal(rng, 0.0f, 1.0f);
    Bitmask2D mask(64, 256);
    for (Index r = 0; r < 64; ++r)
        for (Index c = 0; c < 256; ++c)
            if (rng.bernoulli(0.1))
                mask.set(r, c, true);
    for (auto _ : state) {
        SparseMatmulResult result =
            sparseMatmulViaConMerge(input, weight, mask);
        benchmark::DoNotOptimize(result.output.data().data());
    }
}
BENCHMARK(BM_SparseMatmulViaConMerge);

void
BM_BitmaskColumnSlice(benchmark::State &state)
{
    Rng rng(6);
    Bitmask2D mask(256, 4096);
    for (int i = 0; i < 40000; ++i)
        mask.set(rng.uniformInt(256), rng.uniformInt(4096), true);
    for (auto _ : state) {
        u64 acc = 0;
        for (Index c = 0; c < 4096; ++c)
            acc += mask.columnSlice16(c, 64);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BitmaskColumnSlice);

} // namespace
} // namespace exion

int
main(int argc, char **argv)
{
    // Accept (and strip) the repo-wide --quick flag so CI can invoke
    // every bench target uniformly; Google Benchmark would reject it.
    bool quick = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--quick")
            quick = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return exion::gateBlockedGemm(quick ? 3 : 5) ? 0 : 1;
}

#else // !EXION_HAVE_GBENCH

namespace exion
{
namespace
{

/** Best-of-N wall-clock timing of fn, printed as one table row. */
template <typename Fn>
void
timeKernel(const char *name, u64 items, int reps, Fn &&fn)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    std::printf("%-32s %10.3f ms   %8.1f Mitems/s\n", name, best * 1e3,
                static_cast<double>(items) / best / 1e6);
}

void
runFallbackSuite(int reps)
{
    std::printf("bench_kernels: self-timed fallback (Google Benchmark "
                "not available at build time), best of %d\n\n",
                reps);

    {
        Rng rng(1);
        std::vector<i32> a(1024), b(1024);
        for (int i = 0; i < 1024; ++i) {
            a[i] = static_cast<i32>(rng.uniformInt(4096)) - 2048;
            b[i] = static_cast<i32>(rng.uniformInt(4096)) - 2048;
        }
        timeKernel("ld_product_two_step/1024", 1024, reps, [&] {
            i64 acc = 0;
            for (int i = 0; i < 1024; ++i)
                acc += ldProduct(a[i], b[i], LodMode::TwoStep);
            g_sink = g_sink + static_cast<float>(acc);
        });
    }

    for (const GemmShape &s : kEpShapes) {
        const EpOperands op = epOperands(s);
        timeKernel(s.name, s.m * s.k * s.n, reps, [&] {
            const Matrix p =
                predictHeadScore(op.x, op.wq, op.wk, LodMode::TwoStep);
            g_sink = g_sink + p(0, 0);
        });
    }

    for (const EpBlockShape &s : kEpBlockShapes) {
        EpBlock block(s);
        timeKernel(s.name, s.tokens * s.tokens * s.heads, reps, [&] {
            const Matrix out = block.run(s.ep);
            g_sink = g_sink + out(0, 0);
        });
    }

    {
        const Matrix p = decideScores();
        timeKernel("ep_decide_head/128", p.size(), reps, [&] {
            const HeadDecision dec = decideFromPrediction(p, kDecideEp);
            g_sink = g_sink + static_cast<float>(dec.oneHotCount());
        });
    }

    for (Index n : {Index{64}, Index{128}}) {
        Rng rng(3);
        Matrix a(n, n), b(n, n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
        const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
        for (GemmBackend backend :
             {GemmBackend::Reference, GemmBackend::Blocked}) {
            char name[64];
            std::snprintf(name, sizeof(name), "quant_matmul/%zu/%s",
                          static_cast<size_t>(n),
                          gemmBackendName(backend));
            timeKernel(name, n * n * n, reps, [&] {
                const Matrix c = matmulQuantWith(qa, qb, backend);
                g_sink = g_sink + c(0, 0);
            });
        }
    }

    for (Index i = 0; i < kGemmRowCount; ++i) {
        const GemmShape &s = gemmRowShape(i);
        Rng rng(7);
        Matrix a(s.m, s.k), b(s.k, s.n);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        for (GemmBackend backend :
             {GemmBackend::Reference, GemmBackend::Blocked}) {
            char name[64];
            std::snprintf(name, sizeof(name), "gemm_%s/%s", s.name,
                          gemmBackendName(backend));
            timeKernel(name, s.m * s.k * s.n, reps, [&] {
                const Matrix c = matmulWith(a, b, backend);
                g_sink = g_sink + c(0, 0);
            });
        }
    }

    for (const GemmShape &s : kScoreShapes) {
        Rng rng(8);
        Matrix a(s.m, s.k), b(s.n, s.k);
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        for (const ScoreVariant &v : kScoreVariants) {
            char name[64];
            std::snprintf(name, sizeof(name), "gemm_t_%s/%s", s.name,
                          v.name);
            timeKernel(name, s.m * s.k * s.n, reps, [&] {
                const Matrix c =
                    matmulTransposedWith(a, b, v.backend, v.simd);
                g_sink = g_sink + c(0, 0);
            });
        }
    }

    {
        Rng rng(4);
        FfnMaskParams params;
        params.density = 0.1;
        params.deadColFraction = 0.3;
        params.hotColFraction = 0.02;
        const Bitmask2D mask = synthFfnMask(16, 1024, params, rng);
        ConMergePipeline pipeline;
        timeKernel("conmerge_group/density_10", 1024, reps, [&] {
            GroupResult group = pipeline.processGroup(mask, 0);
            g_sink = g_sink + static_cast<float>(group.positionsUsed);
        });
    }
}

} // namespace
} // namespace exion

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--quick")
            quick = true;
    const int reps = quick ? 3 : 5;
    exion::runFallbackSuite(reps);
    return exion::gateBlockedGemm(reps) ? 0 : 1;
}

#endif // EXION_HAVE_GBENCH
