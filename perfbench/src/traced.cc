#include "traced.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "exion/common/rng.h"
#include "exion/sparsity/eager_prediction.h"
#include "exion/tensor/gemm.h"
#include "exion/tensor/ops.h"
#include "exion/tensor/quant_matrix.h"

namespace perfbench
{

using namespace exion;

double
TraceLog::nowUs() const
{
    return secondsBetween(epoch_, Clock::now()) * 1e6;
}

void
TraceLog::writeChromeJson(const std::string &path,
                          const std::string &hostJson) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", "
            << "\"pid\": 1, \"tid\": " << s.run << ", \"ts\": "
            << s.startUs
            << ", \"dur\": " << s.durUs << ", \"args\": {\"mode\": \""
            << s.mode << "\", \"iteration\": " << s.iteration
            << ", \"block\": " << s.block << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "], \"otherData\": " << hostJson << "}\n";
}

void
TracingExecutor::beginIteration(int iteration)
{
    finishRun();
    inner_.beginIteration(iteration);
    iteration_ = iteration;
    iterStartUs_ = log_.nowUs();
}

Matrix
TracingExecutor::attention(const TransformerBlock &blk,
                           const Matrix &x_norm)
{
    const double start = log_.nowUs();
    Matrix out = inner_.attention(blk, x_norm);
    const double dur = log_.nowUs() - start;
    totals_.attentionUs += dur;
    log_.add({"attention", mode_, start, dur, iteration_, blk.id(), run_});
    return out;
}

Matrix
TracingExecutor::ffn(const TransformerBlock &blk, const Matrix &x_norm)
{
    const double start = log_.nowUs();
    Matrix out = inner_.ffn(blk, x_norm);
    const double dur = log_.nowUs() - start;
    totals_.ffnUs += dur;
    log_.add({"ffn", mode_, start, dur, iteration_, blk.id(), run_});
    return out;
}

void
TracingExecutor::finishRun()
{
    if (iteration_ < 0)
        return;
    const double dur = log_.nowUs() - iterStartUs_;
    totals_.iterationUs += dur;
    ++totals_.iterations;
    log_.add({"iteration", mode_, iterStartUs_, dur, iteration_, -1, run_});
    iteration_ = -1;
}

bool
sameBytes(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (Index r = 0; r < a.rows(); ++r)
        if (std::memcmp(a.rowPtr(r), b.rowPtr(r),
                        a.cols() * sizeof(float)) != 0)
            return false;
    return true;
}

bool
sameCounts(const ExecStats &a, const ExecStats &b)
{
    return a.qkvOpsDense == b.qkvOpsDense
        && a.qkvOpsExecuted == b.qkvOpsExecuted
        && a.attnOpsDense == b.attnOpsDense
        && a.attnOpsExecuted == b.attnOpsExecuted
        && a.ffnOpsDense == b.ffnOpsDense
        && a.ffnOpsExecuted == b.ffnOpsExecuted
        && a.ffnSparsitySum == b.ffnSparsitySum
        && a.ffnSparsitySamples == b.ffnSparsitySamples
        && a.scoreSparsitySum == b.scoreSparsitySum
        && a.scoreSparsitySamples == b.scoreSparsitySamples
        && a.qRowsTotal == b.qRowsTotal && a.qRowsSkipped == b.qRowsSkipped
        && a.kColsTotal == b.kColsTotal && a.kColsSkipped == b.kColsSkipped
        && a.vColsTotal == b.vColsTotal && a.vColsSkipped == b.vColsSkipped;
}

namespace
{

const char *
modeTag(ExecMode mode)
{
    return mode == ExecMode::Dense ? "dense" : "exion";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct TimedOutput
{
    Matrix output;
    ExecStats stats;
    double seconds = 0.0;
};

/** One decorated run; adds its span durations to totals. */
TimedOutput
decoratedRun(const DiffusionPipeline &pipe, ExecMode mode, u64 seed,
             TraceLog &log, LayerTotals &totals)
{
    auto inner = makeSoloExecutor(pipe.config(), mode);
    const int run = log.beginRun();
    TracingExecutor traced(*inner, log, modeTag(mode), run, totals);
    const double start = log.nowUs();
    TimedOutput out;
    out.output = pipe.run(traced, seed);
    traced.finishRun();
    const double dur = log.nowUs() - start;
    log.add({"run", modeTag(mode), start, dur, -1, -1, run});
    out.seconds = dur * 1e-6;
    out.stats = inner->stats();
    return out;
}

TimedOutput
plainRun(const DiffusionPipeline &pipe, ExecMode mode, u64 seed)
{
    auto exec = makeSoloExecutor(pipe.config(), mode);
    const auto start = Clock::now();
    TimedOutput out;
    out.output = pipe.run(*exec, seed);
    out.seconds = secondsBetween(start, Clock::now());
    out.stats = exec->stats();
    return out;
}

} // namespace

TracedResult
tracedLayers(const DiffusionPipeline &pipe, ExecMode ownMode,
             const std::vector<u64> &seeds, TraceLog &log)
{
    TracedResult result;
    std::vector<double> plainS;
    std::vector<double> tracedS;
    for (ExecMode mode : {ExecMode::Dense, ExecMode::Exion}) {
        LayerTotals totals;
        ModeTrace &acc = mode == ExecMode::Dense ? result.dense
                                                 : result.exion;
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            if (mode != ownMode) {
                acc.stats.merge(
                    decoratedRun(pipe, mode, seeds[i], log, totals).stats);
                continue;
            }
            // Alternate the order so neither side always runs on a
            // warmer cache.
            TimedOutput plain;
            TimedOutput traced;
            if (i % 2 == 0) {
                plain = plainRun(pipe, mode, seeds[i]);
                traced = decoratedRun(pipe, mode, seeds[i], log, totals);
            } else {
                traced = decoratedRun(pipe, mode, seeds[i], log, totals);
                plain = plainRun(pipe, mode, seeds[i]);
            }
            acc.stats.merge(traced.stats);
            plainS.push_back(plain.seconds);
            tracedS.push_back(traced.seconds);
            ++result.checked;
            if (!sameBytes(plain.output, traced.output)
                || !sameCounts(plain.stats, traced.stats))
                ++result.mismatched;
        }
        if (totals.iterations == 0)
            throw std::logic_error("traced run recorded no iterations");
        const double perIterMs = 1e-3 / totals.iterations;
        acc.iterMs = totals.iterationUs * perIterMs;
        acc.attnMs = totals.attentionUs * perIterMs;
        acc.ffnMs = totals.ffnUs * perIterMs;
        acc.otherMs = acc.iterMs - acc.attnMs - acc.ffnMs;
    }
    result.overheadFrac = ratio(median(tracedS), median(plainS)) - 1.0;
    return result;
}

void
reportSparsityCounts(const ExecStats &s, Report &report)
{
    const auto frac = [](OpCount num, OpCount den) {
        return ratio(static_cast<double>(num), static_cast<double>(den));
    };
    report.set("sparsity.ops_frac",
               frac(s.totalExecuted(), s.totalDense()));
    report.set("sparsity.qkv_ops_frac",
               frac(s.qkvOpsExecuted, s.qkvOpsDense));
    report.set("sparsity.attn_ops_frac",
               frac(s.attnOpsExecuted, s.attnOpsDense));
    report.set("sparsity.ffn_ops_frac",
               frac(s.ffnOpsExecuted, s.ffnOpsDense));
    report.set("sparsity.ffn_mask_sparsity", s.meanFfnSparsity());
    report.set("sparsity.score_sparsity", s.meanScoreSparsity());
    report.set("sparsity.q_skip_frac", frac(s.qRowsSkipped, s.qRowsTotal));
    report.set("sparsity.kv_skip_frac",
               frac(s.kColsSkipped + s.vColsSkipped,
                    s.kColsTotal + s.vColsTotal));
}

namespace
{

Matrix
randomMatrix(Index rows, Index cols, Rng &rng)
{
    Matrix m(rows, cols);
    m.fillNormal(rng, 0.0f, 1.0f);
    return m;
}

/**
 * Median over five repeats of the mean time of fn, each repeat
 * calling it until at least 20 ms have passed. Seconds per call.
 */
template <typename Fn>
double
timePerCall(Fn &&fn)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        int calls = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            fn();
            ++calls;
            elapsed = secondsBetween(start, Clock::now());
        } while (elapsed < 0.02);
        reps.push_back(elapsed / calls);
    }
    return median(reps);
}

} // namespace

KernelTimes
kernelTimes(const Workload &w, const DiffusionPipeline &pipe, u64 seed)
{
    const BatchEngine::Options engine = engineOptions(w);
    const GemmBackend backend = engine.gemmBackend;
    const SimdTier simd = engine.simdTier;
    const TransformerBlock &blk = pipe.network().block(0);
    const StageConfig &stage = pipe.config().stages.front();
    const Index rows =
        stage.tokens * (w.cohortBatching ? kCohortMaxRows : 1);
    const Index d = blk.dModel();
    const Index dh = blk.headDim();
    const Index hidden = blk.ffnHidden();

    Rng rng(seed);
    const Matrix x = randomMatrix(rows, d, rng);
    const Matrix wProj = randomMatrix(d, d, rng);
    const Matrix wFfn1 = randomMatrix(d, hidden, rng);
    const Matrix qHead = randomMatrix(stage.tokens, dh, rng);
    const Matrix kHead = randomMatrix(stage.tokens, dh, rng);
    const auto gflops = [](double flops, double seconds) {
        return flops / seconds * 1e-9;
    };

    KernelTimes t;
    t.projGflops = gflops(
        static_cast<double>(mmulOps(rows, d, d)), timePerCall([&] {
            return matmulWith(x, wProj, backend, simd);
        }));
    t.ffn1Gflops = gflops(
        static_cast<double>(mmulOps(rows, d, hidden)), timePerCall([&] {
            return matmulWith(x, wFfn1, backend, simd);
        }));
    t.scoresGflops = gflops(
        static_cast<double>(mmulOps(stage.tokens, dh, stage.tokens)),
        timePerCall([&] {
            return matmulTransposedWith(qHead, kHead, backend, simd);
        }));

    // EP on one head of one request, as epAttentionImpl runs it.
    const QuantMatrix xq = QuantMatrix::fromFloat(
        randomMatrix(stage.tokens, d, rng), IntWidth::Int12);
    const Matrix wqHead = sliceCols(blk.wq().weight(), 0, dh);
    const Matrix wkHead = sliceCols(blk.wk().weight(), 0, dh);
    const QuantMatrix wq = QuantMatrix::fromFloat(wqHead, IntWidth::Int12);
    const QuantMatrix wk = QuantMatrix::fromFloat(wkHead, IntWidth::Int12);
    const SparseExecutor::Options epOpts =
        SparseExecutor::fromConfig(pipe.config(), true, true, false);
    t.epPredictUs = 1e6 * timePerCall([&] {
        return predictHeadScore(xq, wq, wk, epOpts.lodMode, simd);
    });
    t.epQuantizeUs = 1e6 * timePerCall([&] {
        return std::make_pair(
            QuantMatrix::fromFloat(sliceCols(blk.wq().weight(), 0, dh),
                                   IntWidth::Int12),
            QuantMatrix::fromFloat(sliceCols(blk.wk().weight(), 0, dh),
                                   IntWidth::Int12));
    });
    return t;
}

} // namespace perfbench
