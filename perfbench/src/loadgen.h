/**
 * @file
 * The timed run: set-up, one closed-loop measured window, output
 * verification, and the metrics derived from it.
 *
 * Engine workloads drive BatchEngine from one thread holding
 * Workload::clients requests in flight; the HTTP workload drives
 * HttpFront + HttpServer over Workload::clients keep-alive
 * connections, one thread each, every client POSTing a job and then
 * reading its SSE stream up to `done`.
 */

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "exion/model/pipeline.h"
#include "report.h"
#include "workload.h"

namespace perfbench
{

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 3;

/**
 * Timed submissions re-run solo and compared byte for byte, by
 * submission index. A run completes at least 100 requests (p90 needs
 * them), so all four exist; only their outputs are kept, so memory
 * does not grow with throughput.
 */
inline constexpr std::array<std::size_t, 4> kVerifyIndices = {0, 33, 66, 99};

/**
 * One timed request as its client saw it. Times are seconds since the
 * window opened, on the client's clock.
 */
struct RequestRecord
{
    /** Order of submission among the timed requests. */
    std::size_t index = 0;
    exion::u64 seed = 0;
    double submit = 0.0;
    double firstProgress = -1.0;
    double lastProgress = -1.0;
    double done = -1.0;
    int progressEvents = 0;
    /** RequestResult::seconds (on HTTP: the `done` event's). */
    double serviceSeconds = 0.0;
    /** cohortOccupancy(req).running when the request was submitted. */
    double cohortRows = 0.0;
    /** HTTP only: POST round trip, SSE head wait, last progress to
        `done`. Seconds. */
    double postRtt = 0.0;
    double streamOpen = 0.0;
    double doneLag = 0.0;
    /**
     * Completed with the right shape, finite values and one progress
     * event per iteration (and on HTTP exactly one `done`); cleared
     * again if the solo re-run disagrees.
     */
    bool valid = false;
    /**
     * The program answered, but wrongly: bad shape, non-finite
     * values, wrong event counts or bytes unlike the solo re-run.
     * Refusals and failed exchanges are misses without being wrong.
     */
    bool wrong = false;
    /** Why the request is not valid (empty when it is). */
    std::string error;
    /** Served output and counts; kept for kVerifyIndices only. */
    exion::Matrix output;
    exion::ExecStats stats;
};

/** Everything one timed run measured. */
struct TimedRun
{
    /** Every timed submission, in submission order. */
    std::vector<RequestRecord> records;
    double windowSeconds = 0.0;
    std::vector<double> setupSeconds;
    double peakRssMiB = 0.0;
    /** Requests re-run solo, and how many of them disagreed. */
    std::size_t verified = 0;
    std::size_t mismatched = 0;

    /** Valid requests that completed inside the window. */
    std::vector<const RequestRecord *> windowCompletions() const;
    /** Valid requests (completed in or after the window). */
    std::size_t validCount() const;
    /** No request was answered wrongly. */
    bool correct() const;
};

/**
 * Sets the workload up kSetups times (engine construction, model
 * registration, server start, one warm-up round), then drives the
 * last set-up for `seconds`, drains, and re-runs the requests of
 * kVerifyIndices solo through DiffusionPipeline::run.
 */
TimedRun runTimed(const Workload &w, exion::u64 seed, double seconds);

/** Every end-to-end metric. @throws TooFewSamples on a short run */
void reportEndToEnd(const Workload &w, const TimedRun &run,
                    Report &report);

/** serve.* and net.* (net.* are 0 on in-process workloads). */
void reportServeLayers(const Workload &w, const TimedRun &run,
                       Report &report);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H_
