// Tests of the benchmark's own arithmetic: percentile validity, span self
// time, Prometheus deltas and due-time latency.
//
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build -j
//   ctest --test-dir .bench_build

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  const auto p99 = Percentile(Ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);  // Exactly ten samples (991..1000) beyond.
}

TEST(PercentileTest, MedianIsNearestRankAndOrderFree) {
  std::vector<double> v = Ramp(101);
  std::reverse(v.begin(), v.end());
  const auto p50 = Percentile(v, 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(*p50, 51.0);
  EXPECT_FALSE(Percentile(Ramp(15), 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(MedianTest, EvenAndOdd) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(SelfTimeTest, SubtractsMergedChildCoverage) {
  SpanBuffer b(true);
  const int64_t root = b.Add("root", 0, 100, 1, 7);
  b.Add("child", 10, 30, 1, 7, root);
  b.Add("child", 20, 50, 1, 7, root);   // Overlaps the first child.
  b.Add("child", 90, 130, 1, 7, root);  // Runs past the parent's end.
  const auto self = SelfTimes(b.spans());
  // Covered inside [0,100]: [10,50] + [90,100] = 50 ns.
  EXPECT_NEAR(self.at("root").total_us, 0.050, 1e-12);
  EXPECT_EQ(self.at("root").count, 1u);
  EXPECT_NEAR(self.at("child").total_us, (20 + 30 + 40) / 1e3, 1e-12);
  EXPECT_EQ(self.at("child").count, 3u);
}

TEST(SelfTimeTest, DisabledBufferRecordsNothingAndOpenSpansAreSkipped) {
  SpanBuffer off(false);
  EXPECT_EQ(off.Open("x", 0, 0, 0), -1);
  EXPECT_TRUE(off.spans().empty());
  SpanBuffer on(true);
  on.Open("open", 0, 0, 0);
  EXPECT_TRUE(SelfTimes(on.spans()).empty());
}

TEST(PrometheusTest, DeltaOfCountersAndHistograms) {
  const std::string before =
      "# TYPE freeway_net_acks_total counter\n"
      "freeway_net_acks_total 10\n"
      "# TYPE freeway_raft_messages_total counter\n"
      "freeway_raft_messages_total{dir=\"in\"} 4\n"
      "freeway_raft_messages_total{dir=\"out\"} 5\n"
      "# TYPE freeway_learner_stage_seconds histogram\n"
      "freeway_learner_stage_seconds_bucket{stage=\"infer\",le=\"1e-05\"} 1\n"
      "freeway_learner_stage_seconds_bucket{stage=\"infer\",le=\"0.0001\"} 2\n"
      "freeway_learner_stage_seconds_bucket{stage=\"infer\",le=\"+Inf\"} 2\n"
      "freeway_learner_stage_seconds_sum{stage=\"infer\"} 5e-05\n"
      "freeway_learner_stage_seconds_count{stage=\"infer\"} 2\n";
  const std::string after =
      "freeway_net_acks_total 25\n"
      "freeway_raft_messages_total{dir=\"in\"} 6\n"
      "freeway_raft_messages_total{dir=\"out\"} 9\n"
      "freeway_raft_role 2\n"
      "freeway_learner_stage_seconds_bucket{stage=\"infer\",le=\"1e-05\"} 1\n"
      "freeway_learner_stage_seconds_bucket{stage=\"infer\",le=\"0.0001\"} 12\n"
      "freeway_learner_stage_seconds_bucket{stage=\"infer\",le=\"+Inf\"} 12\n"
      "freeway_learner_stage_seconds_sum{stage=\"infer\"} 0.00055\n"
      "freeway_learner_stage_seconds_count{stage=\"infer\"} 12\n"
      "garbage line without value\n";
  const MetricSample d = Delta(ParsePrometheus(before), ParsePrometheus(after));
  EXPECT_DOUBLE_EQ(d.at("freeway_net_acks_total"), 15);
  EXPECT_DOUBLE_EQ(d.at("freeway_raft_role"), 2);  // Absent before: from 0.
  EXPECT_DOUBLE_EQ(SumFamily(d, "freeway_raft_messages_total"), 6);
  EXPECT_DOUBLE_EQ(d.at("freeway_raft_messages_total{dir=\"out\"}"), 4);

  const HistogramView h =
      ReadHistogram(d, "freeway_learner_stage_seconds", "stage=\"infer\"");
  EXPECT_DOUBLE_EQ(h.count, 10);
  EXPECT_NEAR(h.Mean(), 5e-5, 1e-12);
  // All ten new samples sit in (1e-5, 1e-4]: the median interpolates to
  // the middle of that bucket.
  EXPECT_NEAR(h.Quantile(0.5), 1e-5 + 0.5 * 9e-5, 1e-12);
  EXPECT_TRUE(ReadHistogram(d, "freeway_learner_stage_seconds").buckets.empty());
}

TEST(DueTimeTest, StalledSendChargesTheWaitToLaterRequests) {
  // Requests due every 100 µs; the first send stalls for 1 ms. A blocking
  // sender only starts request i once request i-1 completed, so the
  // latencies of the requests queued behind the stall include their wait.
  DueTimeLog log;
  const int64_t us = 1000;
  int64_t free_at = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    const int64_t due = static_cast<int64_t>(i) * 100 * us;
    const int64_t service = i == 0 ? 1000 * us : 10 * us;
    const int64_t sent = std::max(due, free_at);
    log.Due(i, due);
    log.Sent(i, sent);
    free_at = sent + service;
    log.Done(i, free_at);
  }
  std::vector<double> latency = log.LatenciesMicros();
  std::vector<double> lag = log.LagsMicros();
  std::sort(latency.begin(), latency.end());
  std::sort(lag.begin(), lag.end());
  // Completions at 1000, 1010, 1020, 1030, 1040 µs against dues 0..400 µs.
  EXPECT_EQ(latency, (std::vector<double>{640, 730, 820, 910, 1000}));
  EXPECT_EQ(lag, (std::vector<double>{0, 630, 720, 810, 900}));
  EXPECT_EQ(log.DueOf(3), 300 * us);
}

TEST(DueTimeTest, UncompletedRequestsAreNotTimed) {
  DueTimeLog log;
  log.Due(1, 0);
  log.Sent(1, 5);
  log.Due(2, 10);
  EXPECT_TRUE(log.LatenciesMicros().empty());
  EXPECT_EQ(log.LagsMicros().size(), 1u);
}

}  // namespace
}  // namespace perfbench
