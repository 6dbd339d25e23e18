#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <thread>

#include "exion/tensor/simd_dispatch.h"

namespace perfbench
{

double
percentile(std::vector<double> values, double q)
{
    const std::size_t n = values.size();
    // 1-based nearest rank; the samples after it form the tail.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n == 0 || rank < 1 || n - rank < kMinTail)
        throw TooFewSamples(
            "p" + std::to_string(static_cast<int>(q * 100.0 + 0.5))
            + " of " + std::to_string(n) + " samples leaves fewer than "
            + std::to_string(kMinTail) + " beyond it");
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"throughput_rps", "1/s"},
        {"latency_p50_s", "s"},
        {"latency_p90_s", "s"},
        {"first_iter_p50_ms", "ms"},
        {"iter_p50_ms", "ms"},
        {"iter_p90_ms", "ms"},
        {"success_frac", "frac"},
        {"peak_rss_mib", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"serve.service_p50_s", "s"},
        {"serve.wait_p50_ms", "ms"},
        {"serve.cohort_rows_mean", "rows"},
        {"serve.in_service_mean", "requests"},
        {"net.post_rtt_p50_ms", "ms"},
        {"net.stream_open_p50_ms", "ms"},
        {"net.done_lag_p50_ms", "ms"},
        {"net.overhead_p50_ms", "ms"},
        {"model.iter_ms.dense", "ms"},
        {"model.attn_ms.dense", "ms"},
        {"model.ffn_ms.dense", "ms"},
        {"model.other_ms.dense", "ms"},
        {"model.iter_ms.exion", "ms"},
        {"model.attn_ms.exion", "ms"},
        {"model.ffn_ms.exion", "ms"},
        {"model.other_ms.exion", "ms"},
        {"sparsity.ops_frac", "frac"},
        {"sparsity.qkv_ops_frac", "frac"},
        {"sparsity.attn_ops_frac", "frac"},
        {"sparsity.ffn_ops_frac", "frac"},
        {"sparsity.ffn_mask_sparsity", "frac"},
        {"sparsity.score_sparsity", "frac"},
        {"sparsity.q_skip_frac", "frac"},
        {"sparsity.kv_skip_frac", "frac"},
        {"sparsity.attn_time_frac", "frac"},
        {"sparsity.ffn_time_frac", "frac"},
        {"sparsity.ep_predict_us", "us"},
        {"sparsity.ep_quantize_us", "us"},
        {"tensor.proj_gflops", "GFLOP/s"},
        {"tensor.ffn1_gflops", "GFLOP/s"},
        {"tensor.scores_gflops", "GFLOP/s"},
        {"trace.overhead_frac", "frac"},
    };
    return specs;
}

namespace
{

bool
declared(const std::string &name)
{
    for (const auto *set : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricSpec &m : *set)
            if (name == m.name)
                return true;
    return false;
}

/** Every digit needed to read back the same double. */
std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Escapes a string for a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

void
Report::set(const std::string &name, double value)
{
    if (!declared(name))
        throw std::invalid_argument("undeclared metric " + name);
    values_[name] = value;
}

std::string
Report::json(const std::vector<MetricSpec> &set, bool correct,
             unsigned long long attempted,
             unsigned long long failed) const
{
    std::size_t matched = 0;
    std::string metrics;
    for (const MetricSpec &m : set) {
        const auto it = values_.find(m.name);
        if (it == values_.end())
            throw std::logic_error(std::string("metric ") + m.name
                                   + " was not measured");
        if (!std::isfinite(it->second))
            throw std::logic_error(std::string("metric ") + m.name
                                   + " is not finite");
        ++matched;
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + std::string(m.name) + "\": {\"value\": "
            + fullDigits(it->second) + ", \"unit\": \"" + m.unit + "\"}";
    }
    if (matched != values_.size())
        throw std::logic_error("report holds metrics outside its set");
    return "{\"correct\": " + std::string(correct ? "true" : "false")
        + ", \"attempted\": " + std::to_string(attempted)
        + ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {"
        + metrics + "}}";
}

std::string
HostRecord::json() const
{
    return "{\"nproc\": " + std::to_string(nproc)
        + ", \"simd_level\": \"" + jsonEscape(simdLevel)
        + "\", \"cpu_model\": \"" + jsonEscape(cpuModel)
        + "\", \"build_type\": \"" + jsonEscape(buildType)
        + "\", \"commit\": \"" + jsonEscape(commit)
        + "\", \"source_digest\": \"" + jsonEscape(sourceDigest) + "\"}";
}

HostRecord
hostRecord(const std::string &commit, const std::string &sourceDigest)
{
    HostRecord h;
    h.nproc = static_cast<int>(std::thread::hardware_concurrency());
    h.simdLevel = exion::simdLevelName(exion::activeSimdLevel());
    h.cpuModel = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                h.cpuModel = line.substr(line.find_first_not_of(
                    " \t", colon + 1));
            break;
        }
    }
#ifdef PERFBENCH_BUILD_TYPE
    h.buildType = PERFBENCH_BUILD_TYPE;
#else
    h.buildType = "unknown";
#endif
    h.commit = commit;
    h.sourceDigest = sourceDigest;
    return h;
}

double
peakRssMiB()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
