/**
 * @file
 * The immutable weight store: EXWS format round-trips, corruption
 * detection, quantized-at-rest exactness, and the differential gate —
 * a pipeline served from a saved, mmap'd store must be bit-identical
 * to the seeded in-memory build across every benchmark, execution
 * mode and quantisation level, solo and cohort, and two engines
 * registering one store must share its weight image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exion/common/mmap_file.h"
#include "exion/common/rng.h"
#include "exion/common/threadpool.h"
#include "exion/model/pipeline.h"
#include "exion/model/weight_store.h"
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

/** Bitwise equality of quantized images, scale bits included. */
bool
bitIdenticalQuant(const QuantMatrix &a, const QuantMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && std::memcmp(&a.params().scale, &b.params().scale,
                       sizeof(double)) == 0
        && a.params().width == b.params().width
        && (a.size() == 0
            || std::memcmp(a.rowPtr(0), b.rowPtr(0),
                           a.size() * sizeof(i32)) == 0);
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
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

Matrix
runPipeline(const DiffusionPipeline &pipe, ExecMode mode, bool quantize,
            u64 seed)
{
    if (mode == ExecMode::Dense) {
        DenseExecutor exec(quantize);
        return pipe.run(exec, seed);
    }
    const bool ffnr =
        mode == ExecMode::FfnReuseOnly || mode == ExecMode::Exion;
    const bool ep = mode == ExecMode::EpOnly || mode == ExecMode::Exion;
    SparseExecutor exec(
        SparseExecutor::fromConfig(pipe.config(), ffnr, ep, quantize));
    return pipe.run(exec, seed);
}

Matrix
randomMatrix(Index rows, Index cols, u64 seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    m.fillNormal(rng, 0.0f, 1.0f);
    return m;
}

// ------------------------------------------------------------ mmap

TEST(MmapFileTest, MapsExistingFileReadOnly)
{
    const std::string path = tempPath("mmap_basic.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "exion mmap payload";
    }
    const MmapFile f = MmapFile::open(path);
    ASSERT_EQ(f.size(), 18u);
    EXPECT_EQ(std::memcmp(f.data(), "exion mmap payload", 18), 0);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(f.mapped());
#endif
    std::remove(path.c_str());
}

TEST(MmapFileTest, MissingFileThrows)
{
    EXPECT_THROW(MmapFile::open(tempPath("no_such_file.bin")),
                 std::runtime_error);
}

// ---------------------------------------------------------- format

TEST(WeightStoreTest, SaveLoadRoundTripPreservesEverything)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto built = WeightStore::build(cfg);
    const std::string path = tempPath("roundtrip.exws");
    built->save(path);
    const auto loaded = WeightStore::load(path);

#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(loaded->mapped());
#endif
    EXPECT_EQ(built->checksum(), loaded->checksum());
    EXPECT_EQ(built->sizeBytes(), loaded->sizeBytes());

    const ModelConfig &lc = loaded->config();
    EXPECT_EQ(lc.name, cfg.name);
    EXPECT_EQ(lc.benchmark, cfg.benchmark);
    EXPECT_EQ(lc.scale, cfg.scale);
    EXPECT_EQ(lc.iterations, cfg.iterations);
    EXPECT_EQ(lc.seed, cfg.seed);
    EXPECT_EQ(lc.stages.size(), cfg.stages.size());
    EXPECT_EQ(lc.latentTokens, cfg.latentTokens);
    EXPECT_EQ(lc.latentDim, cfg.latentDim);
    EXPECT_EQ(lc.geglu, cfg.geglu);
    EXPECT_EQ(lc.ffnReuse.denseInterval, cfg.ffnReuse.denseInterval);

    ASSERT_EQ(built->entries().size(), loaded->entries().size());
    for (const auto &[name, e] : built->entries()) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(loaded->has(name));
        const auto &le = loaded->entries().at(name);
        EXPECT_EQ(le.kind, e.kind);
        EXPECT_EQ(le.rows, e.rows);
        EXPECT_EQ(le.cols, e.cols);
        EXPECT_EQ(le.byteLen, e.byteLen);
        EXPECT_EQ(le.offset % 64, 0u);
        if (e.kind == WeightStore::TensorKind::Float32)
            EXPECT_TRUE(bitIdentical(built->matrix(name),
                                     loaded->matrix(name)));
        else
            EXPECT_TRUE(bitIdenticalQuant(built->quant(name),
                                          loaded->quant(name)));
    }
    EXPECT_TRUE(built->matrix("inProj.w").borrowed());
    EXPECT_TRUE(loaded->matrix("inProj.w").borrowed());
    std::remove(path.c_str());
}

TEST(WeightStoreTest, CorruptionAndForeignImagesAreRejected)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto built = WeightStore::build(cfg);
    const std::string path = tempPath("corrupt.exws");
    built->save(path);

    std::vector<char> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const auto write_variant = [&](auto mutate) {
        std::vector<char> bytes = image;
        mutate(bytes);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // A flipped payload byte fails the checksum.
    write_variant([](std::vector<char> &b) { b[b.size() / 2] ^= 0x01; });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // Truncation fails the size check.
    write_variant([](std::vector<char> &b) { b.resize(b.size() / 2); });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // Foreign magic is refused before any parsing.
    write_variant([](std::vector<char> &b) { b[0] = 'X'; });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // An unknown version is refused.
    write_variant([](std::vector<char> &b) { b[12] = 99; });
    EXPECT_THROW(WeightStore::load(path), WeightStoreError);

    // The pristine image still loads after all that.
    write_variant([](std::vector<char> &) {});
    EXPECT_NO_THROW(WeightStore::load(path));
    std::remove(path.c_str());
}

// ------------------------------------------------- quantized at rest

TEST(WeightStoreTest, QuantAtRestRoundTripMatchesLiveQuantization)
{
    // 63/64/65 columns straddle the store's 64-byte section alignment
    // and the kernels' 64-lane mask granularity.
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    u64 seed = 31337;
    for (Index cols : {Index{63}, Index{64}, Index{65}}) {
        SCOPED_TRACE(::testing::Message() << cols << " cols");
        const Matrix w = randomMatrix(17, cols, ++seed);
        const QuantMatrix live = QuantMatrix::fromFloat(w, IntWidth::Int12);

        WeightStoreBuilder builder(cfg);
        builder.add("w", w);
        builder.add("w.q", live);
        const auto store = builder.finish();
        const std::string path =
            tempPath("qrt" + std::to_string(cols) + ".exws");
        store->save(path);
        const auto loaded = WeightStore::load(path);

        const QuantMatrix at_rest = loaded->quant("w.q");
        EXPECT_TRUE(at_rest.borrowed());
        EXPECT_TRUE(bitIdenticalQuant(live, at_rest));
        // Re-quantizing the stored float image reproduces the at-rest
        // image: quantisation is deterministic, so quantized-at-rest
        // and quantized-per-request are the same bits.
        EXPECT_TRUE(bitIdenticalQuant(
            QuantMatrix::fromFloat(loaded->matrix("w"), IntWidth::Int12),
            at_rest));
        // Dequantize and integer matmul agree to the bit.
        EXPECT_TRUE(bitIdentical(live.toFloat(), at_rest.toFloat()));
        const QuantMatrix qx = QuantMatrix::fromFloat(
            randomMatrix(5, 17, 999), IntWidth::Int12);
        // x (5x17) * w (17xcols) in the quant domain.
        EXPECT_TRUE(bitIdentical(matmulQuant(qx, live),
                                 matmulQuant(qx, at_rest)));
        std::remove(path.c_str());
    }
}

TEST(WeightStoreTest, QuantAtRestAdversarialScalesAndShapes)
{
    ModelConfig cfg = shortConfig(Benchmark::MLD);
    WeightStoreBuilder builder(cfg);

    // Extreme dynamic range: quantize() clamps per contract, and the
    // clamped image must round-trip exactly.
    Matrix extreme(2, 3);
    extreme(0, 0) = std::numeric_limits<float>::max();
    extreme(0, 1) = std::numeric_limits<float>::denorm_min();
    extreme(0, 2) = -std::numeric_limits<float>::max();
    extreme(1, 0) = 0.0f;
    extreme(1, 1) = -0.0f;
    extreme(1, 2) = 1.0f;
    const QuantMatrix extreme_q =
        QuantMatrix::fromFloat(extreme, IntWidth::Int12);
    builder.add("extreme.q", extreme_q);

    // Adversarial stored scales (Inf / NaN doubles) must survive the
    // index round-trip bit-for-bit — the loader validates structure,
    // not numerology.
    QuantParams inf_params;
    inf_params.scale = std::numeric_limits<double>::infinity();
    inf_params.width = IntWidth::Int12;
    const i32 inf_ints[4] = {1, -2, 3, -4};
    builder.add("inf.q", QuantMatrix::borrow(inf_ints, 2, 2, inf_params));

    QuantParams nan_params;
    nan_params.scale = std::numeric_limits<double>::quiet_NaN();
    nan_params.width = IntWidth::Int16;
    const i32 nan_ints[2] = {7, -7};
    builder.add("nan.q", QuantMatrix::borrow(nan_ints, 1, 2, nan_params));

    // Degenerate shapes: zero rows and zero cols, float and quant.
    builder.add("zr", Matrix(0, 5));
    builder.add("zc", Matrix(5, 0));
    builder.add("zr.q", QuantMatrix::fromFloat(Matrix(0, 5),
                                               IntWidth::Int12));
    builder.add("zc.q", QuantMatrix::fromFloat(Matrix(5, 0),
                                               IntWidth::Int12));

    const auto store = builder.finish();
    const std::string path = tempPath("adversarial.exws");
    store->save(path);
    const auto loaded = WeightStore::load(path);

    EXPECT_TRUE(bitIdenticalQuant(extreme_q, loaded->quant("extreme.q")));
    // The FLT_MAX magnitude maps to the INT12 extreme, the rest of
    // the range collapses to 0/±1-ish small codes — clamp engaged.
    EXPECT_EQ(loaded->quant("extreme.q").rowPtr(0)[0], 2047);
    EXPECT_EQ(loaded->quant("extreme.q").rowPtr(0)[2], -2047);

    const QuantMatrix inf_loaded = loaded->quant("inf.q");
    EXPECT_TRUE(std::isinf(inf_loaded.params().scale));
    EXPECT_EQ(std::memcmp(inf_loaded.rowPtr(0), inf_ints,
                          sizeof(inf_ints)),
              0);
    const QuantMatrix nan_loaded = loaded->quant("nan.q");
    EXPECT_TRUE(std::isnan(nan_loaded.params().scale));
    EXPECT_EQ(nan_loaded.params().width, IntWidth::Int16);
    EXPECT_EQ(std::memcmp(nan_loaded.rowPtr(0), nan_ints,
                          sizeof(nan_ints)),
              0);

    EXPECT_EQ(loaded->matrix("zr").rows(), 0);
    EXPECT_EQ(loaded->matrix("zr").cols(), 5);
    EXPECT_EQ(loaded->matrix("zc").rows(), 5);
    EXPECT_EQ(loaded->matrix("zc").cols(), 0);
    EXPECT_EQ(loaded->quant("zr.q").size(), 0);
    EXPECT_EQ(loaded->quant("zc.q").size(), 0);
    EXPECT_EQ(loaded->quant("zr.q").params().scale, 1.0);
    std::remove(path.c_str());
}

// ----------------------------------------------------- differential

/**
 * The tentpole gate: every benchmark, every ablation mode, float and
 * INT12 — a pipeline over the saved-then-mmap'd store must reproduce
 * the seeded in-memory build to the last bit.
 */
TEST(WeightStoreDifferentialTest, MmapStoreMatchesSeededBuildEverywhere)
{
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::EpOnly,
                              ExecMode::FfnReuseOnly, ExecMode::Exion};
    u64 seed = 77000;
    for (Benchmark b : allBenchmarks()) {
        const ModelConfig cfg = shortConfig(b);
        const DiffusionPipeline seeded(cfg);

        const std::string path = tempPath(cfg.name + ".exws");
        seeded.store()->save(path);
        const auto loaded = WeightStore::load(path);
        const DiffusionPipeline mapped(loaded);

        for (ExecMode mode : modes) {
            for (bool quantize : {false, true}) {
                SCOPED_TRACE(cfg.name + " mode " + execModeName(mode)
                             + (quantize ? " int12" : " float"));
                ++seed;
                const Matrix ref =
                    runPipeline(seeded, mode, quantize, seed);
                const Matrix got =
                    runPipeline(mapped, mode, quantize, seed);
                ASSERT_EQ(maxAbsDiff(ref, got), 0.0);
                ASSERT_TRUE(bitIdentical(ref, got));
            }
        }
        std::remove(path.c_str());
    }
}

/** Cohort stepping over the mmap'd store vs solo seeded-build runs. */
TEST(WeightStoreDifferentialTest, CohortOverMmapStoreMatchesSoloSeeded)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const DiffusionPipeline seeded(cfg);
    const std::string path = tempPath("cohort.exws");
    seeded.store()->save(path);
    const DiffusionPipeline mapped(WeightStore::load(path));

    const Index n = 5;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        SCOPED_TRACE(execModeName(mode));
        const bool sparse = mode == ExecMode::Exion;
        CohortExecutor exec(SparseExecutor::fromConfig(
            cfg, /*use_ffn_reuse=*/sparse, /*use_ep=*/sparse,
            /*quantize=*/false));
        CohortRun run(mapped, exec);
        std::vector<Index> slots;
        for (Index i = 0; i < n; ++i)
            slots.push_back(run.join(6100 + 17 * i));
        while (!run.done())
            run.step();
        for (Index i = 0; i < n; ++i) {
            SCOPED_TRACE(::testing::Message() << "member " << i);
            const Matrix solo = runPipeline(seeded, mode, false,
                                            6100 + 17 * i);
            const Matrix stacked = run.takeResult(slots[i]);
            ASSERT_EQ(maxAbsDiff(solo, stacked), 0.0);
            ASSERT_TRUE(bitIdentical(solo, stacked));
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------- serving

TEST(WeightStoreEngineTest, TwoEnginesShareOneStoreBitIdentically)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const std::string path = tempPath("engines.exws");
    WeightStore::build(cfg)->save(path);
    const auto store = WeightStore::load(path);
    const long base_use = store.use_count();

    std::vector<ServeRequest> requests;
    for (u64 i = 0; i < 4; ++i) {
        ServeRequest req;
        req.id = i;
        req.benchmark = cfg.benchmark;
        req.mode = i % 2 == 0 ? ExecMode::Dense : ExecMode::Exion;
        req.quantize = i == 3;
        req.noiseSeed = 8800 + i;
        requests.push_back(req);
    }

    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine first(opts);
    first.registerModel(cfg.benchmark, store);
    BatchEngine second(opts);
    second.registerModel(cfg.benchmark, store);
    // Both engines hold views into the one store — no copy happened.
    EXPECT_EQ(store.use_count(), base_use + 2);
    EXPECT_EQ(first.pipeline(cfg.benchmark).store().get(), store.get());
    EXPECT_EQ(second.pipeline(cfg.benchmark).store().get(), store.get());

    // A third engine on the legacy build path is the reference.
    BatchEngine legacy(opts);
    legacy.addModel(cfg);

    const auto a = submitAll(first, requests);
    const auto b = submitAll(second, requests);
    const auto c = submitAll(legacy, requests);
    ASSERT_EQ(a.size(), requests.size());
    for (Index i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "request " << i);
        ASSERT_TRUE(a[i].ok() && b[i].ok() && c[i].ok());
        ASSERT_TRUE(bitIdentical(a[i].output, b[i].output));
        ASSERT_TRUE(bitIdentical(a[i].output, c[i].output));
    }
    std::remove(path.c_str());
}

TEST(WeightStoreEngineTest, RegisterFromFileServesTheBenchmark)
{
    const ModelConfig cfg = shortConfig(Benchmark::EDGE);
    const std::string path = tempPath("fromfile.exws");
    WeightStore::build(cfg)->save(path);

    BatchEngine engine;
    engine.registerModelFromFile(path);
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Dense;
    req.noiseSeed = 321;
    Ticket t = engine.submit(req);
    ASSERT_TRUE(t.get().ok());

    const DiffusionPipeline seeded(cfg);
    DenseExecutor exec;
    EXPECT_TRUE(bitIdentical(seeded.run(exec, 321), t.get().output));
    std::remove(path.c_str());
}

TEST(WeightStoreEngineTest, RegisterWrongBenchmarkOrNullStoreThrows)
{
    BatchEngine engine;
    EXPECT_THROW(engine.registerModel(Benchmark::MLD, nullptr),
                 std::invalid_argument);
    const auto store = WeightStore::build(shortConfig(Benchmark::MLD));
    EXPECT_THROW(engine.registerModel(Benchmark::DiT, store),
                 std::invalid_argument);
    // The matching benchmark registers fine.
    EXPECT_NO_THROW(engine.registerModel(Benchmark::MLD, store));
}

TEST(WeightStoreEngineTest, RegistrationOnStoppedEngineThrowsTyped)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto store = WeightStore::build(cfg);
    BatchEngine engine;
    engine.shutdown();
    EXPECT_THROW(engine.registerModel(cfg.benchmark, store),
                 ThreadPoolStopped);
    EXPECT_THROW(engine.addModel(cfg), ThreadPoolStopped);
    const std::string path = tempPath("stopped.exws");
    store->save(path);
    EXPECT_THROW(engine.registerModelFromFile(path), ThreadPoolStopped);
    std::remove(path.c_str());
}

TEST(WeightStoreTest, PinPlumbingAndBestEffortDegradation)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto built = WeightStore::build(cfg);
    const std::string path = tempPath("pinned.exws");
    built->save(path);

    // Without a pin request the mapping is never locked.
    const auto unpinned = WeightStore::load(path);
    EXPECT_FALSE(unpinned->pinned());

    // With one, pinning is best-effort: mlock may be refused by
    // RLIMIT_MEMLOCK in constrained environments, and that must
    // degrade to a served-but-unpinned store, never an error. Either
    // outcome loads the identical image.
    const auto pinned = WeightStore::load(path, /*pin=*/true);
    if (pinned->pinned()) {
        EXPECT_TRUE(pinned->mapped());
    }
    EXPECT_EQ(pinned->checksum(), unpinned->checksum());
    EXPECT_EQ(pinned->sizeBytes(), unpinned->sizeBytes());

    // build()-mode stores have no mapping to pin.
    EXPECT_FALSE(built->pinned());
    std::remove(path.c_str());
}

TEST(WeightStoreEngineTest, PinnedRegistrationServesIdentically)
{
    const ModelConfig cfg = shortConfig(Benchmark::MLD);
    const auto store = WeightStore::build(cfg);
    const std::string path = tempPath("pinned_engine.exws");
    store->save(path);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Exion;
    req.noiseSeed = 11;

    BatchEngine::Options opts;
    opts.workers = 1;
    opts.queueResults = false;
    BatchEngine plain(opts);
    plain.registerModel(cfg.benchmark, store);
    const RequestResult reference = plain.submit(req).get();

    BatchEngine viaPin(opts);
    viaPin.registerModelFromFile(path, /*pin=*/true);
    const RequestResult result = viaPin.submit(req).get();

    ASSERT_EQ(result.output.rows(), reference.output.rows());
    ASSERT_EQ(result.output.cols(), reference.output.cols());
    const auto got = result.output.data();
    const auto want = reference.output.data();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    std::remove(path.c_str());
}

} // namespace
} // namespace exion
