// Unit tests for the metrics registry and its JSON export, plus the
// small JSON helpers the obs layer is built on.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/run_summary.hpp"
#include "util/check.hpp"
#include "util/summary_stats.hpp"

namespace tlbsim::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsLastWrittenValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketsByUpperBoundWithOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);   // le 1
  h.observe(1.0);   // le 1 (bounds are inclusive upper bounds)
  h.observe(5.0);   // le 10
  h.observe(100.0); // le 100
  h.observe(1e6);   // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  ASSERT_EQ(h.bucketCounts().size(), 4u);
  EXPECT_EQ(h.bucketCounts()[0], 2u);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
  EXPECT_EQ(h.bucketCounts()[2], 1u);
  EXPECT_EQ(h.bucketCounts()[3], 1u);
}

TEST(Histogram, PercentileTracksSampleSetWithinBucketWidth) {
  // Uniform-ish samples; the histogram estimate must land within one
  // bucket width of the exact nearest-rank answer.
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  SampleSet exact;
  for (int i = 1; i <= 100; ++i) {
    h.observe(static_cast<double>(i));
    exact.add(static_cast<double>(i));
  }
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_NEAR(h.percentile(p), exact.percentile(p), 10.0) << "p=" << p;
  }
  // p=0 targets rank 1, i.e. the minimum (1.0), like SampleSet does.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.percentile(99.0), 0.0);
}

TEST(Histogram, PercentileRankInOverflowBucket) {
  // When the target rank lands past the last finite bound, the estimate
  // is the overflow bucket's lower edge (the last bound) — the best
  // statement the histogram can make, never an invented larger value.
  Histogram h({1.0, 10.0});
  h.observe(0.5);
  for (int i = 0; i < 9; ++i) h.observe(1e6);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  // Rank 1 is still in the first finite bucket.
  EXPECT_LE(h.percentile(0.0), 1.0);
}

TEST(Histogram, AllSamplesInOverflowBucket) {
  Histogram h({1.0});
  h.observe(5.0);
  h.observe(7.0);
  for (double p : {0.0, 50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 1.0) << "p=" << p;
  }
}

TEST(Series, CapsStoredPointsAndCountsOverflow) {
  Series s(/*maxPoints=*/2);
  s.add(microseconds(1), 1.0);
  s.add(microseconds(2), 2.0);
  s.add(microseconds(3), 3.0);
  s.add(microseconds(4), 4.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.points()[1].second, 2.0);  // first points kept, tail dropped
  EXPECT_EQ(s.maxPoints(), 2u);
  EXPECT_EQ(s.pointsNotStored(), 2u);
}

TEST(MetricsRegistry, SeriesCapConsultedOnFirstCreationOnly) {
  MetricsRegistry reg;
  Series& a = reg.series("qth", /*maxPoints=*/3);
  Series& b = reg.series("qth");  // later callers inherit the cap
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.maxPoints(), 3u);
  for (int i = 0; i < 5; ++i) reg.series("qth").add(microseconds(i), 1.0);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.pointsNotStored(), 2u);
}

TEST(Series, RecordsPointsInInsertionOrder) {
  Series s;
  EXPECT_TRUE(s.empty());
  s.add(microseconds(500), 1.0);
  s.add(microseconds(1000), 2.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.points()[0].first, microseconds(500));
  EXPECT_EQ(s.points()[1].second, 2.0);
}

TEST(MetricsRegistry, SameNameReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("tcp.retransmits");
  Counter& b = reg.counter("tcp.retransmits");
  EXPECT_EQ(&a, &b);  // shared aggregate across components
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
  EXPECT_EQ(&reg.series("s"), &reg.series("s"));
  // Histogram bounds are only consulted on first creation; later callers
  // either agree on them or pass {} ("don't care").
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
  Histogram& h3 = reg.histogram("h", {});
  EXPECT_EQ(&h1, &h3);
  EXPECT_EQ(h3.bounds().size(), 2u);
}

#ifndef NDEBUG
TEST(MetricsRegistry, HistogramBoundsMismatchTripsDcheck) {
  // Two components registering the same histogram name with different
  // bounds is a silent-aggregation bug (whoever runs second gets buckets
  // they did not ask for); the registry DCHECKs it in Debug builds.
  MetricsRegistry reg;
  reg.histogram("fct_ms", {1.0, 2.0});
  check::setFailureHandler(
      [](const char*, int, const char*, const char*) {});
  const long before = check::failureCount();
  reg.histogram("fct_ms", {99.0});  // mismatched -> DCHECK fires
  EXPECT_EQ(check::failureCount(), before + 1);
  // Normalization makes permuted-but-equal bounds compatible.
  reg.histogram("fct_ms", {2.0, 1.0});
  EXPECT_EQ(check::failureCount(), before + 1);
  check::setFailureHandler(nullptr);
}
#endif

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.findCounter("missing"), nullptr);
  reg.counter("present").inc();
  ASSERT_NE(reg.findCounter("present"), nullptr);
  EXPECT_EQ(reg.findCounter("present")->value(), 1u);
  EXPECT_EQ(reg.findGauge("present"), nullptr);  // different kind
}

TEST(MetricsRegistry, ToJsonParsesAndRoundTripsValues) {
  MetricsRegistry reg;
  reg.counter("port.leaf0->spine1.drops").inc(7);
  reg.gauge("sim.end_time_s").set(1.25);
  reg.histogram("fct_ms", {1.0, 10.0}).observe(0.5);
  reg.histogram("fct_ms", {}).observe(99.0);  // overflow bucket
  reg.series("tlb.leaf0.qth_bytes").add(microseconds(500), 65536.0);
  reg.series("tlb.leaf0.qth_bytes").add(microseconds(1000), 32768.0);

  const auto doc = JsonValue::parse(reg.toJson());
  ASSERT_TRUE(doc.has_value());

  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* drops = counters->find("port.leaf0->spine1.drops");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(drops->number, 7.0);

  const JsonValue* gauge = doc->find("gauges")->find("sim.end_time_s");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->number, 1.25);

  const JsonValue* hist = doc->find("histograms")->find("fct_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number, 2.0);
  const JsonValue* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items.size(), 3u);  // 2 bounds + overflow
  EXPECT_TRUE(buckets->items.back().find("le")->isNull());
  EXPECT_EQ(buckets->items.back().find("count")->number, 1.0);

  const JsonValue* series = doc->find("series")->find("tlb.leaf0.qth_bytes");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items.size(), 2u);
  EXPECT_DOUBLE_EQ(series->items[0].items[0].number, 0.0005);  // seconds
  EXPECT_DOUBLE_EQ(series->items[0].items[1].number, 65536.0);
}

TEST(MetricsRegistry, WriteJsonFileProducesParsableFile) {
  MetricsRegistry reg;
  reg.counter("c").inc(1);
  const std::string path = testing::TempDir() + "/metrics_test.json";
  ASSERT_TRUE(reg.writeJsonFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(JsonValue::parse(buf.str()).has_value());
  std::remove(path.c_str());
}

TEST(Json, EscapeHandlesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("\n\t"), "\\n\\t");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, NumberFormatIsIntegerWhenExact) {
  EXPECT_EQ(jsonNumber(42.0), "42");
  EXPECT_EQ(jsonNumber(-3.0), "-3");
  EXPECT_EQ(jsonNumber(0.5), "0.5");
  // Round-trip guarantee for non-integers.
  const std::string s = jsonNumber(0.1);
  EXPECT_DOUBLE_EQ(std::stod(s), 0.1);
}

TEST(Json, ParserAcceptsNestedDocumentsAndRejectsGarbage) {
  const auto ok = JsonValue::parse(
      R"({"a": [1, 2.5, true, null, "xA"], "b": {"c": -1e3}})");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->find("a")->items.size(), 5u);
  EXPECT_EQ(ok->find("a")->items[4].str, "xA");
  EXPECT_DOUBLE_EQ(ok->find("b")->find("c")->number, -1000.0);

  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse(R"({"k" 1})").has_value());
}

TEST(RunSummary, PreservesOrderAndExportsJson) {
  RunSummary run;
  run.setMeta("scheme", "tlb");
  run.setMeta("workload", "websearch");
  run.set("short_afct_ms", 1.5);
  run.set("short_afct_ms", 2.0);  // overwrite, no duplicate key
  run.set("fabric_drops", 0.0);

  ASSERT_NE(run.meta("scheme"), nullptr);
  EXPECT_EQ(*run.meta("scheme"), "tlb");
  ASSERT_NE(run.value("short_afct_ms"), nullptr);
  EXPECT_EQ(*run.value("short_afct_ms"), 2.0);
  EXPECT_EQ(run.values().size(), 2u);

  const auto doc = JsonValue::parse(run.toJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("scheme")->str, "tlb");
  EXPECT_EQ(doc->find("short_afct_ms")->number, 2.0);
}

}  // namespace
}  // namespace tlbsim::obs
