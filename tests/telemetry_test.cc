// Unit tests for the telemetry subsystem: sharded metrics, histograms, the
// campaign event log and its JSON rendering.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/event_log.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace themis {
namespace {

// Recording is compiled out under -DTHEMIS_TELEMETRY=OFF, so tests that
// assert on recorded values only make sense in enabled builds.
#define THEMIS_SKIP_IF_TELEMETRY_DISABLED()             \
  do {                                                  \
    if (!kTelemetryEnabled) {                           \
      GTEST_SKIP() << "telemetry compiled out";         \
    }                                                   \
  } while (0)

TEST(Metrics, CounterMergesShards) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Counter counter;
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(Metrics, CounterSumsAcrossThreads) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Inc();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeGoesUpAndDown) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Gauge gauge;
  gauge.Inc();
  gauge.Inc();
  gauge.Dec();
  EXPECT_EQ(gauge.Value(), 1);
  gauge.Add(-5);
  EXPECT_EQ(gauge.Value(), -4);
}

TEST(Metrics, HistogramCountsAndBuckets) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Histogram histogram;
  histogram.Record(0.5);   // bucket 0 (<= 1)
  histogram.Record(3.0);   // bucket 1 (<= 4)
  histogram.Record(100.0); // bucket 4 (<= 256)
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 103.5);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 1u);
  EXPECT_EQ(snapshot.buckets[4], 1u);
}

TEST(Metrics, HistogramOverflowLandsInLastBucket) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Histogram histogram;
  histogram.Record(1e30);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.buckets[kHistogramBuckets - 1], 1u);
}

TEST(Metrics, HistogramQuantilesAreOrdered) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Record(static_cast<double>(i));
  }
  HistogramSnapshot snapshot = histogram.Snapshot();
  double p50 = snapshot.Quantile(0.5);
  double p99 = snapshot.Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(snapshot.mean(), 500.5, 1e-9);
}

// Power-of-4 buckets are wide: interpolating inside (65536, 262144] alone
// would report a lone 71,305 sample as 163,840.
TEST(Metrics, HistogramOneSampleQuantilesAreTheSample) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Histogram histogram;
  histogram.Record(71305.0);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 71305.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.99), 71305.0);
}

TEST(Metrics, HistogramQuantilesStayInsideTheSampleRange) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  Histogram histogram;
  histogram.Record(100.0);  // both in bucket (64, 256]
  histogram.Record(200.0);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.min, 100.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 200.0);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GE(snapshot.Quantile(q), 100.0) << q;
    EXPECT_LE(snapshot.Quantile(q), 200.0) << q;
  }
}

TEST(Metrics, RegistryHandlesAreStable) {
  THEMIS_SKIP_IF_TELEMETRY_DISABLED();
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("telemetry_test.stable");
  // Force more inserts, then re-resolve: same address (hot loops cache it).
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("telemetry_test.filler." + std::to_string(i));
  }
  EXPECT_EQ(&a, &registry.GetCounter("telemetry_test.stable"));
  a.Inc(7);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("telemetry_test.stable"), 7u);
}

TEST(Metrics, MacroIncrementsNamedCounter) {
  uint64_t before =
      MetricsRegistry::Global().GetCounter("telemetry_test.macro").Value();
  THEMIS_COUNTER_INC("telemetry_test.macro", 3);
  uint64_t after =
      MetricsRegistry::Global().GetCounter("telemetry_test.macro").Value();
  EXPECT_EQ(after - before, kTelemetryEnabled ? 3u : 0u);
}

TEST(Trace, SpanRecordsDurationAndCall) {
  SpanMetrics metrics = MakeSpanMetrics("telemetry_test.span");
  uint64_t calls_before = MetricsRegistry::Global()
                              .GetCounter("span.telemetry_test.span.calls")
                              .Value();
  {
    TraceSpan span(*metrics.histogram, *metrics.calls);
    (void)span;
  }
  uint64_t calls_after = MetricsRegistry::Global()
                             .GetCounter("span.telemetry_test.span.calls")
                             .Value();
  EXPECT_EQ(calls_after - calls_before, kTelemetryEnabled ? 1u : 0u);
}

TEST(EventLog, RecordsWithVirtualTimestamps) {
  VirtualClock clock;
  EventLog log;
  log.BindClock(&clock);
  clock.Advance(Minutes(2));
  log.Record(CampaignEventKind::kSeedAccepted, "variance", 1.5, 0.25);
  clock.Advance(Seconds(30));
  log.Record(CampaignEventKind::kMutation, "replace", 0.0, 0.0, 3);
  if (!kTelemetryEnabled) {
    EXPECT_TRUE(log.events().empty());
    return;
  }
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].kind, CampaignEventKind::kSeedAccepted);
  EXPECT_EQ(log.events()[0].at, Minutes(2));
  EXPECT_EQ(log.events()[0].label, "variance");
  EXPECT_DOUBLE_EQ(log.events()[0].value, 1.5);
  EXPECT_EQ(log.events()[1].at, Minutes(2) + Seconds(30));
  EXPECT_EQ(log.events()[1].count, 3u);
}

TEST(EventLog, TakeEventsDrainsTheLog) {
  EventLog log;
  log.Record(CampaignEventKind::kClusterReset);
  std::vector<CampaignEvent> taken = log.TakeEvents();
  EXPECT_EQ(taken.size(), kTelemetryEnabled ? 1u : 0u);
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, ToJsonOmitsZeroFields) {
  CampaignEvent event;
  event.kind = CampaignEventKind::kDoubleCheck;
  event.at = 1500000;
  event.label = "confirmed";
  event.value = 1.5;
  std::string json = event.ToJson(4);
  EXPECT_EQ(json,
            "{\"job\":4,\"at_us\":1500000,\"event\":\"double_check\","
            "\"label\":\"confirmed\",\"value\":1.5}");
  CampaignEvent bare;
  bare.kind = CampaignEventKind::kClusterReset;
  EXPECT_EQ(bare.ToJson(), "{\"at_us\":0,\"event\":\"cluster_reset\"}");
}

TEST(EventLog, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(EventLog, EventEqualityIsFieldwise) {
  CampaignEvent a;
  a.kind = CampaignEventKind::kVariance;
  a.value = 0.5;
  CampaignEvent b = a;
  EXPECT_EQ(a, b);
  b.value2 = 0.1;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace themis
