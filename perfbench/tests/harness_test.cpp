// Tests of the benchmark's own code: the tail-percentile rule,
// closed-loop failure accounting, metric-name validation, the oracle
// hash (including the negative case), the traced run's self times and
// Chrome export.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);  // exactly ten beyond p90
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(PercentileRule, InterpolatesLikeTheLinearDefinition) {
  const std::vector<double> xs = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 4.6);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(PercentileRule, PartsSumTheirOwnPercentiles) {
  // Part 0 is fastest in the second repetition, part 1 in the first: the
  // unit's minimum is the sum of the parts' minima, below every whole
  // repetition's time (12 and 21).
  const std::vector<std::vector<double>> parts = {{2, 1, 3}, {10, 20, 30}};
  EXPECT_DOUBLE_EQ(parts_percentile(parts, 0), 11.0);
  EXPECT_DOUBLE_EQ(parts_percentile(parts, 50), 22.0);
  EXPECT_DOUBLE_EQ(parts_percentile(parts, 100), 33.0);
  EXPECT_DOUBLE_EQ(parts_percentile({{5, 7}}, 0), 5.0);
  // A miss lies beyond every sample of every part.
  EXPECT_TRUE(std::isinf(parts_percentile(parts, 100, 1)));
  EXPECT_DOUBLE_EQ(parts_percentile(parts, 0, 1), 11.0);
}

TEST(ClosedLoop, FailuresCountAgainstAttemptsAndMissEveryPercentile) {
  op_ledger jobs;
  for (int i = 0; i < 95; ++i) jobs.ok(1.0);
  for (int i = 0; i < 5; ++i) jobs.fail();  // rejects and failed jobs
  EXPECT_EQ(jobs.attempted, 100u);
  EXPECT_EQ(jobs.failed, 5u);
  EXPECT_DOUBLE_EQ(jobs.error_rate(), 0.05);
  EXPECT_DOUBLE_EQ(percentile(jobs.latencies, 50, jobs.failed), 1.0);
  EXPECT_DOUBLE_EQ(percentile(jobs.latencies, 90, jobs.failed), 1.0);
  // p99 lands among the five misses: no latency meets it.
  EXPECT_TRUE(std::isinf(percentile(jobs.latencies, 99, jobs.failed)));

  op_ledger all_failed;
  all_failed.fail();
  EXPECT_DOUBLE_EQ(all_failed.error_rate(), 1.0);
  EXPECT_TRUE(std::isinf(percentile(all_failed.latencies, 50, all_failed.failed)));
  EXPECT_DOUBLE_EQ(op_ledger{}.error_rate(), 0.0);
}

TEST(MetricNames, FollowTheContract) {
  for (const char* ok : {"step_ms.p50", "setup_s", "obs.overhead_frac.swm-serial",
                         "mpisim.pingpong_us.64k", "9lives"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "a b", "a/b", "a\"b",
                          "job_ms.p50\n"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  for (const char* ok : {"ms", "s", "1/s", "GB/s", "%", "virtual_us"}) {
    EXPECT_TRUE(valid_unit(ok)) << ok;
  }
  for (const char* bad : {"", "m s", std::string(17, 'u').c_str()}) {
    EXPECT_FALSE(valid_unit(bad)) << bad;
  }
}

TEST(MetricNames, SetRejectsBadEntries) {
  metric_set m;
  m.add("step_ms.p50", 1.5, "ms");
  EXPECT_THROW(m.add("step_ms.p50", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("x", 2.0, "m s"), std::invalid_argument);
  EXPECT_THROW(m.add("y", std::numeric_limits<double>::infinity(), "ms"),
               std::invalid_argument);
  ASSERT_NE(m.find("step_ms.p50"), nullptr);
  EXPECT_EQ(m.all().size(), 1u);
}

TEST(ResultLine, CarriesEveryDigit) {
  metric_set m;
  m.add("latency_ms", 0.1, "ms");
  EXPECT_EQ(result_json(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 0.10000000000000001, \"unit\": "
            "\"ms\"}}}");
}

// The DesGolden reference (tests/mpisim_topology_test.cpp).
std::uint64_t reference_fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, 8);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Oracle, HashMatchesDesGoldenAndCatchesAFlippedBit) {
  std::vector<double> state = {0.0, -0.0, 1.5, 3.25e-7, -42.0};
  const std::uint64_t want = fnv1a_of(std::span<const double>(state));
  EXPECT_EQ(want, reference_fnv1a(state));

  oracle_ledger oracles;
  EXPECT_TRUE(oracles.check("same state", want,
                            fnv1a_of(std::span<const double>(state))));

  // Flip the lowest mantissa bit of one element: a bit-identity oracle
  // must report it, and the run counts it as a failed operation.
  state[2] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(state[2]) ^ 1u);
  EXPECT_FALSE(oracles.check("flipped bit", want,
                             fnv1a_of(std::span<const double>(state))));
  EXPECT_EQ(oracles.checks, 2u);
  EXPECT_EQ(oracles.mismatches, 1u);
  ASSERT_EQ(oracles.failures.size(), 1u);
  EXPECT_NE(oracles.failures[0].find("flipped bit"), std::string::npos);

  // -0.0 == 0.0 as values, but not as bits.
  EXPECT_NE(fnv1a_of(std::span<const double>(std::vector<double>{0.0})),
            fnv1a_of(std::span<const double>(std::vector<double>{-0.0})));
}

TEST(Spans, SelfTimeResidualAndChromeExport) {
  span_log log(obs::domain::swm);
  const auto a = log.add("step", 0, 0.0, 10.0, -1, 100);
  log.add("rhs", 0, 0.0, 4.0, a);
  log.add("apply", 0, 4.0, 9.0, a);
  const auto b = log.add("step", 1, 10.0, 20.0, -1, 100);
  log.add("rhs", 1, 10.0, 19.0, b);

  const std::vector<layer_row> rows = layer_table(log);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "step");
  EXPECT_TRUE(rows[0].root);
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].total_s, 20.0);
  EXPECT_DOUBLE_EQ(rows[0].self_s, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].self_s, 13.0);
  EXPECT_DOUBLE_EQ(residual_fraction(log), 0.1);
  EXPECT_THROW(log.add("orphan", 0, 0, 1, 99), std::out_of_range);

  // A library span whose end a full ring dropped must not break the
  // export; the benchmark's spans nest on their own track.
  std::vector<obs::event> library = {
      {1.0, "swm.step", 0, 0, obs::kind::begin, obs::domain::swm, 0},
      {2.0, "swm.step", 0, 0, obs::kind::end, obs::domain::swm, 0},
      {3.0, "swm.step", 1, 0, obs::kind::begin, obs::domain::swm, 0},
  };
  const std::string path = "perfbench_harness_test_trace.json";
  const span_log* logs[] = {&log};
  const obs::trace_validation v = export_trace(path, library, logs);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.spans, 6u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace perfbench
