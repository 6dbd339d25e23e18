/**
 * @file
 * perfbench: runs one named workload against libexion and prints its
 * metrics (see ../README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit ID] [--source-digest HEX] [--trace-dir DIR]
 *
 * --trace 0 prints every end-to-end metric; --trace 1 runs the same
 * timed window, then the traced per-layer run, and prints every
 * per-layer metric (writing the spans to DIR as Chrome trace JSON).
 * The last stdout line is the JSON result; any failure exits nonzero
 * without one.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "loadgen.h"
#include "report.h"
#include "traced.h"
#include "workload.h"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    exion::u64 seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "none";
    std::string sourceDigest = "none";
    std::string traceDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--source-digest HEX] "
                 "[--trace-dir DIR]\nworkloads:",
                 why.c_str());
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), &end);
        else if (flag == "--trace")
            a.trace = (v == "0" ? 0 : v == "1" ? 1 : -1);
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--source-digest")
            a.sourceDigest = v;
        else if (flag == "--trace-dir")
            a.traceDir = v;
        else
            usage("unknown flag " + flag);
        if (end && *end != '\0')
            usage("bad number for " + flag + ": " + v);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds >= 1.0 && a.seconds <= 60.0))
        usage("--seconds must be within 1..60");
    if (a.trace < 0)
        usage("--trace must be 0 or 1");
    return a;
}

int
run(const Args &args)
{
    const Workload &w = findWorkload(args.workload);
    const HostRecord host = hostRecord(args.commit, args.sourceDigest);
    std::printf("host: %s\n", host.json().c_str());
    std::fflush(stdout);

    const TimedRun timed = runTimed(w, args.seed, args.seconds);
    const unsigned long long attempted = timed.records.size();
    const unsigned long long failed = attempted - timed.validCount();
    bool correct = timed.correct();
    std::fprintf(stderr,
                 "%s: %llu attempted, %llu failed, %zu completed in the "
                 "%.0f s window, %zu/%zu re-runs matched\n",
                 w.name.c_str(), attempted, failed,
                 timed.windowCompletions().size(), timed.windowSeconds,
                 timed.verified - timed.mismatched, timed.verified);
    for (const RequestRecord &rec : timed.records)
        if (!rec.valid) {
            std::fprintf(stderr, "first miss: %s\n", rec.error.c_str());
            break;
        }

    Report report;
    if (args.trace == 0) {
        reportEndToEnd(w, timed, report);
        std::printf("%s\n", report.json(endToEndMetrics(), correct,
                                        attempted, failed)
                                .c_str());
        return 0;
    }

    reportServeLayers(w, timed, report);
    const exion::DiffusionPipeline pipe(w.model);
    SeedStream seeds(args.seed);
    const std::vector<exion::u64> traceSeeds = {seeds.next(), seeds.next(),
                                                seeds.next()};
    TraceLog log;
    const TracedResult t = tracedLayers(pipe, w.mode, traceSeeds, log);
    correct = correct && t.mismatched == 0;
    std::fprintf(stderr, "traced: %u/%u decorated runs matched plain\n",
                 t.checked - t.mismatched, t.checked);
    for (const auto &[tag, m] :
         {std::pair{"dense", &t.dense}, std::pair{"exion", &t.exion}}) {
        const std::string sfx = std::string(".") + tag;
        report.set("model.iter_ms" + sfx, m->iterMs);
        report.set("model.attn_ms" + sfx, m->attnMs);
        report.set("model.ffn_ms" + sfx, m->ffnMs);
        report.set("model.other_ms" + sfx, m->otherMs);
    }
    reportSparsityCounts(t.exion.stats, report);
    report.set("sparsity.attn_time_frac", t.exion.attnMs / t.dense.attnMs);
    report.set("sparsity.ffn_time_frac", t.exion.ffnMs / t.dense.ffnMs);
    const KernelTimes k = kernelTimes(w, pipe, args.seed);
    report.set("sparsity.ep_predict_us", k.epPredictUs);
    report.set("sparsity.ep_quantize_us", k.epQuantizeUs);
    report.set("tensor.proj_gflops", k.projGflops);
    report.set("tensor.ffn1_gflops", k.ffn1Gflops);
    report.set("tensor.scores_gflops", k.scoresGflops);
    report.set("trace.overhead_frac", t.overheadFrac);

    std::filesystem::create_directories(args.traceDir);
    const std::string path = args.traceDir + "/" + w.name + "-seed"
        + std::to_string(args.seed) + ".json";
    log.writeChromeJson(path, host.json());
    std::fprintf(stderr, "trace: %zu spans -> %s\n", log.spans().size(),
                 path.c_str());
    std::printf("%s\n", report.json(perLayerMetrics(), correct, attempted,
                                    failed)
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
