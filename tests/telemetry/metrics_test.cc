#include "src/telemetry/metrics.h"

#include <gtest/gtest.h>

#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.Add();
  c.Add();
  c.Add(2.5);
  EXPECT_EQ(c.value(), 4.5);
}

TEST(Gauge, SetOverwritesAddAccumulates) {
  Gauge g;
  g.Set(3.0);
  EXPECT_EQ(g.value(), 3.0);
  g.Set(1.0);
  EXPECT_EQ(g.value(), 1.0);
  g.Add(2.0);
  g.Add(-0.5);
  EXPECT_EQ(g.value(), 2.5);
}

TEST(FixedHistogram, BucketsObservationsByUpperBound) {
  FixedHistogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.counts().size(), 4u);  // three bounds + overflow

  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are inclusive)
  h.Observe(5.0);    // <= 10
  h.Observe(100.0);  // <= 100
  h.Observe(1e6);    // overflow

  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_DOUBLE_EQ(h.Mean(), h.sum() / 5.0);
}

TEST(FixedHistogram, EmptyHistogramHasZeroMean) {
  FixedHistogram h(DefaultLatencyBucketsUs());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(DefaultLatencyBucketsUs, StrictlyIncreasing) {
  const std::vector<double> bounds = DefaultLatencyBucketsUs();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsRegistry, FindOrCreateIsIdempotentByName) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter("engine.dispatches");
  Counter* b = registry.FindOrCreateCounter("engine.dispatches");
  EXPECT_EQ(a, b);
  a->Add(3.0);
  EXPECT_EQ(b->value(), 3.0);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, HandlesSurviveRegistryGrowth) {
  MetricsRegistry registry;
  Counter* first = registry.FindOrCreateCounter("m.0");
  for (int i = 1; i < 200; ++i) {
    registry.FindOrCreateCounter("m." + std::to_string(i));
  }
  first->Add(7.0);
  EXPECT_EQ(registry.FindCounter("m.0")->value(), 7.0);
}

TEST(MetricsRegistry, FindWithoutCreateReturnsNull) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindGauge("absent"), nullptr);
  EXPECT_EQ(registry.FindHistogram("absent"), nullptr);
  registry.FindOrCreateCounter("a.counter");
  // Present, but the wrong kind.
  EXPECT_EQ(registry.FindGauge("a.counter"), nullptr);
  EXPECT_NE(registry.FindCounter("a.counter"), nullptr);
}

TEST(MetricsRegistry, SnapshotIsSortedAndCoversHistograms) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("z.count")->Add(2.0);
  registry.FindOrCreateGauge("a.gauge")->Set(1.5);
  FixedHistogram* h = registry.FindOrCreateHistogram("m.lat", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(20.0);

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 5u);  // counter + gauge + 3 histogram pseudo-entries
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
  EXPECT_EQ(snapshot.front().first, "a.gauge");
  EXPECT_EQ(snapshot.back().first, "z.count");

  // Histogram pseudo-entries.
  bool saw_count = false;
  for (const auto& [name, value] : snapshot) {
    if (name == "m.lat.count") {
      saw_count = true;
      EXPECT_EQ(value, 2.0);
    }
  }
  EXPECT_TRUE(saw_count);
}

TEST(MetricsRegistry, RenderTextIsDeterministic) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("b")->Add(1.0);
  registry.FindOrCreateCounter("a")->Add(2.0);
  const std::string text = registry.RenderText();
  EXPECT_EQ(text, registry.RenderText());
  EXPECT_LT(text.find("a "), text.find("b "));
}

TEST(MetricsRegistry, ToJsonIsValidJson) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("engine.dispatches")->Add(42.0);
  registry.FindOrCreateGauge("bus.utilization")->Set(0.25);
  FixedHistogram* h = registry.FindOrCreateHistogram("stall_us", DefaultLatencyBucketsUs());
  h->Observe(3.0);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"engine.dispatches\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_us.buckets\""), std::string::npos);
}

TEST(MetricsRegistry, EmptyRegistryStillRendersValidJson) {
  MetricsRegistry registry;
  EXPECT_TRUE(ParsesAsJson(registry.ToJson()));
}

}  // namespace
}  // namespace affsched
