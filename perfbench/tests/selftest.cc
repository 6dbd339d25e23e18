/**
 * @file
 * Self-tests of the benchmark: the percentile floor, the metric
 * catalogue against BENCHMARK.json, and the repeatability of the
 * traced run's sparsity counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "traced.h"
#include "workload.h"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

std::string
readSpec()
{
    std::ifstream in(PERFBENCH_SPEC);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The "key": [...] array of the spec, as text. */
std::string
specArray(const std::string &spec, const std::string &key)
{
    const auto at = spec.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    const auto open = spec.find('[', at);
    return spec.substr(open, spec.find(']', open) - open);
}

std::vector<std::pair<std::string, std::string>>
specMetrics(const std::string &array)
{
    const std::regex entry(
        "\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    std::vector<std::pair<std::string, std::string>> out;
    for (std::sregex_iterator it(array.begin(), array.end(), entry), end;
         it != end; ++it)
        out.emplace_back((*it)[1], (*it)[2]);
    return out;
}

std::vector<std::pair<std::string, std::string>>
declaredMetrics(const std::vector<MetricSpec> &set)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const MetricSpec &m : set)
        out.emplace_back(m.name, m.unit);
    return out;
}

} // namespace

TEST(Percentile, RefusesATailOfFewerThanTenSamples)
{
    EXPECT_THROW(percentile(oneTo(99), 0.9), TooFewSamples);
    EXPECT_THROW(percentile(oneTo(19), 0.5), TooFewSamples);
    EXPECT_THROW(percentile({}, 0.5), TooFewSamples);
    EXPECT_NO_THROW(percentile(oneTo(100), 0.9));
    EXPECT_NO_THROW(percentile(oneTo(20), 0.5));
}

TEST(Percentile, IsTheNearestRank)
{
    EXPECT_EQ(percentile(oneTo(100), 0.9), 90.0);
    EXPECT_EQ(percentile(oneTo(100), 0.5), 50.0);
    EXPECT_EQ(percentile(oneTo(21), 0.5), 11.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0}), 2.5);
}

TEST(Report, PrintsEveryMetricWithItsUnit)
{
    for (const auto *set : {&endToEndMetrics(), &perLayerMetrics()}) {
        Report report;
        for (const MetricSpec &m : *set)
            report.set(m.name, 1.25);
        const std::string json = report.json(*set, true, 3, 0);
        for (const MetricSpec &m : *set) {
            const std::string expect = "\"" + std::string(m.name)
                + "\": {\"value\": 1.25, \"unit\": \"" + m.unit + "\"}";
            EXPECT_NE(json.find(expect), std::string::npos) << expect;
        }
        EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, "
                             "\"failed\": 0, \"metrics\": {",
                             0),
                  0u);
    }
}

TEST(Report, RefusesAPartialOrMixedResult)
{
    Report partial;
    partial.set("setup_s", 1.0);
    EXPECT_THROW(partial.json(endToEndMetrics(), true, 1, 0),
                 std::logic_error);

    Report mixed;
    for (const MetricSpec &m : endToEndMetrics())
        mixed.set(m.name, 1.0);
    mixed.set("trace.overhead_frac", 0.0);
    EXPECT_THROW(mixed.json(endToEndMetrics(), true, 1, 0),
                 std::logic_error);

    Report nan;
    for (const MetricSpec &m : endToEndMetrics())
        nan.set(m.name, 1.0);
    nan.set("latency_p50_s", NAN);
    EXPECT_THROW(nan.json(endToEndMetrics(), true, 1, 0),
                 std::logic_error);

    EXPECT_THROW(Report().set("latency_p99_s", 1.0),
                 std::invalid_argument);
}

TEST(Spec, MatchesTheDeclaredMetricsAndWorkloads)
{
    const std::string spec = readSpec();
    ASSERT_FALSE(spec.empty());
    EXPECT_EQ(specMetrics(specArray(spec, "end_to_end")),
              declaredMetrics(endToEndMetrics()));
    EXPECT_EQ(specMetrics(specArray(spec, "per_layer")),
              declaredMetrics(perLayerMetrics()));

    const std::regex name("\"name\":\\s*\"([^\"]+)\"");
    const std::string array = specArray(spec, "workloads");
    std::vector<std::string> names;
    for (std::sregex_iterator it(array.begin(), array.end(), name), end;
         it != end; ++it)
        names.push_back((*it)[1]);
    std::vector<std::string> declared;
    for (const Workload &w : workloads())
        declared.push_back(w.name);
    EXPECT_EQ(names, declared);
}

TEST(SeedStream, NeverRepeatsAndFitsAJsonNumber)
{
    SeedStream a(1);
    SeedStream b(2);
    std::set<exion::u64> seen;
    for (int i = 0; i < 1000; ++i) {
        const exion::u64 s = a.next();
        EXPECT_LT(s, exion::u64{1} << 53);
        EXPECT_TRUE(seen.insert(s).second);
    }
    EXPECT_EQ(seen.count(b.next()), 0u);
    EXPECT_EQ(SeedStream(1).next(), SeedStream(1).next());
}

TEST(Traced, SparsityCountsRepeatAndLayerTimesAddUp)
{
    const Workload &w = findWorkload("sd-solo-exion");
    const exion::DiffusionPipeline pipe(w.model);
    SeedStream seeds(7);
    const std::vector<exion::u64> runSeeds = {seeds.next(), seeds.next()};

    Report first;
    Report second;
    for (Report *report : {&first, &second}) {
        TraceLog log;
        const TracedResult t = tracedLayers(pipe, w.mode, runSeeds, log);
        EXPECT_EQ(t.checked, runSeeds.size());
        EXPECT_EQ(t.mismatched, 0u);
        EXPECT_FALSE(log.spans().empty());
        for (const ModeTrace *m : {&t.dense, &t.exion}) {
            EXPECT_GT(m->iterMs, 0.0);
            EXPECT_DOUBLE_EQ(m->attnMs + m->ffnMs + m->otherMs, m->iterMs);
        }
        // Dense executes every op it counts; EXION skips some.
        EXPECT_EQ(t.dense.stats.totalExecuted(),
                  t.dense.stats.totalDense());
        EXPECT_LT(t.exion.stats.totalExecuted(),
                  t.exion.stats.totalDense());
        reportSparsityCounts(t.exion.stats, *report);
    }
    for (const char *name :
         {"sparsity.ops_frac", "sparsity.qkv_ops_frac",
          "sparsity.attn_ops_frac", "sparsity.ffn_ops_frac",
          "sparsity.ffn_mask_sparsity", "sparsity.score_sparsity",
          "sparsity.q_skip_frac", "sparsity.kv_skip_frac"})
        EXPECT_EQ(first.get(name), second.get(name)) << name;
}
