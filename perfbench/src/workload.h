/**
 * @file
 * The benchmark's named workloads and the serving configuration each
 * one runs under. README.md records why each workload was chosen.
 */

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "exion/model/config.h"
#include "exion/model/executor.h"
#include "exion/serve/batch_engine.h"

namespace perfbench
{

/** Engine workers: two, leaving half of a 4-vCPU host to the
    generator and the HTTP threads. */
inline constexpr int kEngineWorkers = 2;

/** Most rows a cohort steps together (BatchEngine's default). */
inline constexpr exion::Index kCohortMaxRows = 8;

/** One closed-loop workload. */
struct Workload
{
    std::string name;
    exion::ModelConfig model;
    exion::ExecMode mode = exion::ExecMode::Dense;
    bool cohortBatching = false;
    /** Closed-loop clients: each waits for its result, then resubmits. */
    int clients = 1;
    /** Served through HttpFront + HttpServer instead of in-process. */
    bool http = false;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload named name. @throws std::invalid_argument */
const Workload &findWorkload(const std::string &name);

/** Engine options the workload serves under. */
exion::BatchEngine::Options engineOptions(const Workload &w);

/**
 * A solo executor built exactly as BatchEngine builds one for a
 * request of this mode (Blocked GEMMs, Exact SIMD tier, no TP).
 * Supports Dense and Exion.
 */
std::unique_ptr<exion::BlockExecutor> makeSoloExecutor(
    const exion::ModelConfig &cfg, exion::ExecMode mode);

/**
 * Per-request noise seeds derived from the workload seed: a hashed
 * base plus a counter, so no seed repeats within a run and a result
 * cache could not serve the benchmark from memory. Seeds stay below
 * 2^53 so they survive the JSON number of an HTTP submission.
 */
class SeedStream
{
  public:
    explicit SeedStream(exion::u64 workloadSeed);

    /** The next unused seed. Thread-safe. */
    exion::u64 next() { return base_ + count_.fetch_add(1); }

  private:
    exion::u64 base_;
    std::atomic<exion::u64> count_{0};
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H_
