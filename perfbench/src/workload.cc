#include "workload.h"

#include <stdexcept>

#include "exion/sparsity/sparse_executor.h"

namespace perfbench
{

using namespace exion;

namespace
{

ModelConfig
withIterations(ModelConfig cfg, int iterations)
{
    cfg.iterations = iterations;
    return cfg;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        // Cohort stacking and the tall Blocked GEMMs: 16 clients keep
        // two 8-row cohorts full on the two workers.
        {"mld-cohort-dense", makeConfig(Benchmark::MLD, Scale::Full),
         ExecMode::Dense, true, 16, false},
        // The paper's mechanism (EP, FFN-Reuse, ResBlocks) on the solo
        // path. 16 iterations instead of 50 keep a request near
        // 0.35 s, so a run completes the 100+ requests p90 needs;
        // FFN-Reuse still alternates dense and sparse iterations.
        {"sd-solo-exion",
         withIterations(makeConfig(Benchmark::StableDiffusion,
                                   Scale::Reduced),
                        16),
         ExecMode::Exion, false, 2, false},
        // The only workload crossing net and http_front; skips EP.
        {"http-mdm-dense", makeConfig(Benchmark::MDM, Scale::Reduced),
         ExecMode::Dense, false, 2, true},
    };
    return all;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

BatchEngine::Options
engineOptions(const Workload &w)
{
    BatchEngine::Options opts;
    opts.workers = kEngineWorkers;
    opts.cohortBatching = w.cohortBatching;
    opts.cohortMaxRows = kCohortMaxRows;
    // Results are consumed through tickets and the completion
    // callback, as exion_serve does; an unread queue would only keep
    // every output alive.
    opts.queueResults = false;
    if (w.http)
        opts.admission.maxQueuedPerClass = 16; // exion_serve's bound
    return opts;
}

std::unique_ptr<BlockExecutor>
makeSoloExecutor(const ModelConfig &cfg, ExecMode mode)
{
    const BatchEngine::Options defaults;
    switch (mode) {
      case ExecMode::Dense:
        return std::make_unique<DenseExecutor>(
            false, defaults.gemmBackend, defaults.simdTier);
      case ExecMode::Exion: {
        SparseExecutor::Options opts =
            SparseExecutor::fromConfig(cfg, true, true, false);
        opts.gemm = defaults.gemmBackend;
        opts.simd = defaults.simdTier;
        return std::make_unique<SparseExecutor>(opts);
      }
      default:
        throw std::invalid_argument("benchmark runs dense or exion only");
    }
}

SeedStream::SeedStream(u64 workloadSeed)
{
    // splitmix64 finaliser: nearby workload seeds get distant bases.
    u64 z = workloadSeed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    base_ = (z ^ (z >> 31)) >> 12;
}

} // namespace perfbench
