/**
 * @file
 * Statistics, metric catalogue and result printing of the repository
 * benchmark.
 *
 * Every metric the benchmark can print is declared once here with its
 * unit: the end-to-end set (timed runs) and the per-layer set (traced
 * runs). A Report refuses to render unless it holds exactly one
 * declared set with every value finite, so a run can never print a
 * partial or unit-less result.
 */

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from a to b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Fewest samples a percentile needs strictly beyond its rank. */
inline constexpr std::size_t kMinTail = 10;

/** A percentile the sample is too small to support. */
class TooFewSamples : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Nearest-rank q-quantile of a request distribution.
 *
 * @throws TooFewSamples when fewer than kMinTail samples lie beyond
 *         the rank — p90 needs 100 samples, p50 needs 20 — so a run
 *         too short for a tail fails instead of printing it
 */
double percentile(std::vector<double> values, double q);

/**
 * Median of a few repeated measurements (set-ups, isolated timings):
 * the centre of repeats, not a tail, so no sample floor. @pre !empty
 */
double median(std::vector<double> values);

/** A declared metric: name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every timed run (--trace 0). */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics, printed by every traced run (--trace 1). */
const std::vector<MetricSpec> &perLayerMetrics();

/** Values of one run, keyed by declared metric name. */
class Report
{
  public:
    /**
     * Sets a metric's value.
     * @throws std::invalid_argument for an undeclared name
     */
    void set(const std::string &name, double value);

    /** Value of a metric that was set. @throws std::out_of_range */
    double get(const std::string &name) const { return values_.at(name); }

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"}
     * with every metric of `set` as {"value", "unit"}.
     * @throws std::logic_error when a metric of `set` is missing or
     *         not finite, or a value outside `set` was recorded
     */
    std::string json(const std::vector<MetricSpec> &set, bool correct,
                     unsigned long long attempted,
                     unsigned long long failed) const;

  private:
    std::map<std::string, double> values_;
};

/** The host a result was measured on. */
struct HostRecord
{
    int nproc = 0;
    std::string simdLevel;
    std::string cpuModel;
    std::string buildType;
    std::string commit;
    std::string sourceDigest;

    /** One-line JSON object. */
    std::string json() const;
};

/** Host record of this process (commit/digest supplied by caller). */
HostRecord hostRecord(const std::string &commit,
                      const std::string &sourceDigest);

/** Peak resident set size of this process, MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H_
