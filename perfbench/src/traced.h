/**
 * @file
 * The traced run: per-layer time of the model and sparsity layers.
 *
 * TracingExecutor decorates the executor BatchEngine would build and
 * records spans around every call the pipeline makes into it: run ->
 * iteration -> block attention / ffn, each tagged with its run,
 * block, iteration and mode. Spans stay in memory (TraceLog) and are written
 * as Chrome trace-event JSON when the benchmark ends. The decorator
 * only forwards, so a decorated run computes the bytes and op counts
 * of a plain run; tracedLayers() checks that on every call.
 */

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <string>
#include <vector>

#include "exion/model/pipeline.h"
#include "report.h"
#include "workload.h"

namespace perfbench
{

/** In-memory span store, written out as Chrome trace-event JSON. */
class TraceLog
{
  public:
    struct Span
    {
        const char *name;
        const char *mode;
        double startUs;
        double durUs;
        int iteration; //!< -1 on run spans
        int block;     //!< -1 on run and iteration spans
        int run;       //!< shared by every span of one run
    };

    TraceLog() : epoch_(Clock::now()) {}

    /** Microseconds since the log was created. */
    double nowUs() const;

    /** Identifier for the spans of the next run. */
    int beginRun() { return ++runs_; }

    void add(const Span &span) { spans_.push_back(span); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Writes {"traceEvents": [...], "otherData": {host}}. */
    void writeChromeJson(const std::string &path,
                         const std::string &hostJson) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    int runs_ = 0;
};

/** Summed span durations of decorated runs. */
struct LayerTotals
{
    double iterationUs = 0.0;
    double attentionUs = 0.0;
    double ffnUs = 0.0;
    int iterations = 0;
};

/**
 * BlockExecutor decorator recording iteration and block spans into a
 * TraceLog, and adding their durations to a LayerTotals. Forwards
 * beginIteration, attention, ffn, gemmBackend, simdTier and tpContext
 * to the wrapped executor, whose context holds the run's stats.
 */
class TracingExecutor : public exion::BlockExecutor
{
  public:
    TracingExecutor(exion::BlockExecutor &inner, TraceLog &log,
                    const char *mode, int run, LayerTotals &totals)
        : inner_(inner), log_(log), mode_(mode), run_(run),
          totals_(totals)
    {
    }

    void beginIteration(int iteration) override;
    exion::Matrix attention(const exion::TransformerBlock &blk,
                            const exion::Matrix &x_norm) override;
    exion::Matrix ffn(const exion::TransformerBlock &blk,
                      const exion::Matrix &x_norm) override;
    exion::GemmBackend gemmBackend() const override
    {
        return inner_.gemmBackend();
    }
    exion::SimdTier simdTier() const override
    {
        return inner_.simdTier();
    }
    exion::TpContext tpContext() const override
    {
        return inner_.tpContext();
    }

    /** Closes the last iteration span; call when run() returns. */
    void finishRun();

  private:
    exion::BlockExecutor &inner_;
    TraceLog &log_;
    const char *mode_;
    int run_;
    LayerTotals &totals_;
    int iteration_ = -1;
    double iterStartUs_ = 0.0;
};

/** Totals of the decorated runs of one mode. */
struct ModeTrace
{
    double iterMs = 0.0;  //!< mean iteration span
    double attnMs = 0.0;  //!< attention spans per iteration
    double ffnMs = 0.0;   //!< ffn spans per iteration
    double otherMs = 0.0; //!< iterMs - attnMs - ffnMs
    exion::ExecStats stats; //!< merged over the runs
};

/** What the traced run measured, plus its correctness verdict. */
struct TracedResult
{
    ModeTrace dense;
    ModeTrace exion;
    /** Decorated over plain time of the workload's own mode, minus 1. */
    double overheadFrac = 0.0;
    /** Decorated runs that matched their plain twin byte for byte. */
    unsigned checked = 0;
    unsigned mismatched = 0;
};

/**
 * Runs DiffusionPipeline::run decorated, for each seed, in dense and
 * in EXION mode. For the workload's own mode every decorated run is
 * paired with a plain run of the same seed (alternating which goes
 * first): their time ratio gives the tracing overhead and their
 * outputs and op counts must match.
 */
TracedResult tracedLayers(const exion::DiffusionPipeline &pipe,
                          exion::ExecMode ownMode,
                          const std::vector<exion::u64> &seeds,
                          TraceLog &log);

/** Isolated timings of the tensor and EP kernels at w's shapes. */
struct KernelTimes
{
    double projGflops = 0.0;
    double ffn1Gflops = 0.0;
    double scoresGflops = 0.0;
    double epPredictUs = 0.0;
    double epQuantizeUs = 0.0;
};

/**
 * Times matmulWith (projection, FFN-1), matmulTransposedWith (one
 * head's scores), predictHeadScore and the per-head Wq/Wk
 * re-quantisation on the first block of pipe, at the first stage's
 * shapes (rows stacked kCohortMaxRows deep when w batches cohorts).
 */
KernelTimes kernelTimes(const Workload &w,
                        const exion::DiffusionPipeline &pipe,
                        exion::u64 seed);

/** Records every sparsity.* count metric of stats into report. */
void reportSparsityCounts(const exion::ExecStats &stats, Report &report);

/** Whether two matrices hold the same shape and bytes. */
bool sameBytes(const exion::Matrix &a, const exion::Matrix &b);

/** Whether two stats blocks hold the same counts. */
bool sameCounts(const exion::ExecStats &a, const exion::ExecStats &b);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H_
