// Observability-layer tests: counter/gauge/histogram semantics under
// concurrency, span timing, registry identity, and the schema-versioned
// JSON export round-trip the BENCH trajectories rely on. Under
// -DSARBP_OBS=OFF every metric is a no-op stub: each test asserts the
// stub's contract instead (every read is zero, the registry hands out one
// stub per kind, the export is well-formed JSON that parses back).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/queue.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace sarbp::obs {
namespace {

/// What a metric read returns after the test's records: `value` with
/// telemetry compiled in, the stub's zero under -DSARBP_OBS=OFF.
template <class T>
constexpr T when_on(T value) {
  return kEnabled ? value : T{};
}

TEST(Counter, AccumulatesAcrossThreads) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), when_on<std::uint64_t>(kThreads * kAddsPerThread));
}

TEST(Gauge, TracksValueAndHighWaterMark) {
  Gauge g;
  g.set(3);
  g.set(7);
  g.set(2);
  EXPECT_EQ(g.value(), when_on<std::int64_t>(2));
  EXPECT_EQ(g.max(), when_on<std::int64_t>(7));
  g.add(10);
  EXPECT_EQ(g.value(), when_on<std::int64_t>(12));
  EXPECT_EQ(g.max(), when_on<std::int64_t>(12));
  g.add(-5);
  EXPECT_EQ(g.value(), when_on<std::int64_t>(7));
  EXPECT_EQ(g.max(), when_on<std::int64_t>(12));
}

TEST(HistogramTest, SummaryStatisticsAreExact) {
  Histogram h;
  for (const double v : {0.001, 0.002, 0.004, 0.008}) h.record(v);
  EXPECT_EQ(h.count(), when_on<std::uint64_t>(4));
  EXPECT_NEAR(h.sum(), when_on(0.015), 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), when_on(0.001));
  EXPECT_DOUBLE_EQ(h.max(), when_on(0.008));
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramTest, SingleValuePercentilesCollapseToIt) {
  Histogram h;
  h.record(0.125);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), when_on(0.125)) << "q=" << q;
  }
}

TEST(HistogramTest, PercentilesOrderedAndBounded) {
  Histogram h;
  // Latency-like spread over three decades.
  for (int i = 1; i <= 1000; ++i) h.record(1e-5 * i);
  const HistogramStats s = h.stats();
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  if constexpr (kEnabled) {
    // Geometric buckets give ~1-bit resolution: p50 of uniform[1e-5, 1e-2]
    // must land in the right octave.
    EXPECT_GT(s.p50, 1e-3);
    EXPECT_LT(s.p50, 1e-2);
  } else {
    EXPECT_EQ(s, HistogramStats{});
  }
}

TEST(HistogramTest, IgnoresNanClampsNegatives) {
  Histogram h;
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  h.record(std::numeric_limits<double>::infinity());  // dropped like NaN
  EXPECT_EQ(h.count(), 0u);
  h.record(-1.0);  // clamped to 0
  EXPECT_EQ(h.count(), when_on<std::uint64_t>(1));
  EXPECT_EQ(h.min(), 0.0);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(1e-6 * (t + 1) * (i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), when_on<std::uint64_t>(kThreads * kRecords));
  EXPECT_EQ(h.sum() > 0.0, kEnabled);
}

TEST(RegistryTest, SameNameSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), when_on<std::uint64_t>(3));
  // The stub registry hands every name the one disabled counter.
  EXPECT_EQ(&reg.counter("x") != &reg.counter("y"), kEnabled);
}

TEST(RegistryTest, ResetDropsEverything) {
  Registry reg;
  reg.counter("c").add();
  reg.gauge("g").set(5);
  reg.histogram("h").record(1.0);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(RegistryTest, GlobalRegistryIsAProcessSingleton) {
  EXPECT_EQ(&registry(), &registry());
}

TEST(ScopedSpanTest, RecordsElapsedSeconds) {
  Registry reg;
  {
    ScopedSpan span(reg, "work");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Histogram& h = reg.histogram("work");
  EXPECT_EQ(h.count(), when_on<std::uint64_t>(1));
  if constexpr (kEnabled) {
    EXPECT_GE(h.max(), 0.004);
    EXPECT_LT(h.max(), 5.0);
  } else {
    EXPECT_EQ(h.stats(), HistogramStats{});
  }
}

TEST(ScopedSpanTest, FinishEndsEarlyAndDestructorIsIdempotent) {
  Registry reg;
  {
    ScopedSpan span(reg, "early");
    span.finish();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(reg.histogram("early").count(), when_on<std::uint64_t>(1));
}

/// The acceptance-criterion schema test: export -> parse -> identical
/// snapshot, and re-serializing the parsed snapshot reproduces the
/// document byte-for-byte.
TEST(JsonExport, SchemaRoundTrips) {
  Registry reg;
  reg.counter("pipeline.frames").add(42);
  reg.counter("queue.pipeline.image.pushed").add(7);
  reg.gauge("queue.pipeline.image.depth").set(2);
  reg.gauge("queue.pipeline.image.depth").set(1);
  // 2^53 + 1 is the first integer a double cannot hold.
  constexpr std::uint64_t kBeyondDouble = (std::uint64_t{1} << 53) + 1;
  reg.counter("service.jobs.submitted").add(kBeyondDouble);
  reg.gauge("service.pending").set(static_cast<std::int64_t>(kBeyondDouble));
  Histogram& h = reg.histogram("pipeline.stage.backprojection");
  for (const double v : {0.125, 0.25, 0.5, 0.0625}) h.record(v);
  reg.histogram("pipeline.frame.latency_s").record(0.75);

  const MetricsSnapshot before = reg.snapshot();
  const std::string json = to_json(before);
  const MetricsSnapshot after = parse_snapshot_json(json);
  EXPECT_EQ(before, after);
  EXPECT_EQ(to_json(after), json);
}

TEST(JsonExport, EmptyRegistryStillCarriesSchema) {
  Registry reg;
  const std::string json = export_json(reg);
  EXPECT_NE(json.find("\"schema\": \"sarbp.metrics.v1\""), std::string::npos);
  const MetricsSnapshot snap = parse_snapshot_json(json);
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(JsonExport, EscapesAwkwardNames) {
  Registry reg;
  reg.counter("weird\"name\\with\tescapes").add(1);
  const MetricsSnapshot before = reg.snapshot();
  const MetricsSnapshot after = parse_snapshot_json(to_json(before));
  EXPECT_EQ(before, after);
  // A hand-written short escape decodes to its character, not its letter.
  const MetricsSnapshot written = parse_snapshot_json(
      "{\"schema\": \"sarbp.metrics.v1\", \"counters\": {\"a\\nb\": 1}}");
  EXPECT_EQ(written.counters.count("a\nb"), 1u);
}

TEST(JsonExport, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_snapshot_json(""), PreconditionError);
  EXPECT_THROW((void)parse_snapshot_json("{}"), PreconditionError);
  EXPECT_THROW((void)parse_snapshot_json("{\"schema\": \"other.v9\"}"),
               PreconditionError);
  EXPECT_THROW((void)parse_snapshot_json("{\"schema\": \"sarbp.metrics.v1\","
                                         " \"counters\": {\"x\": }}"),
               PreconditionError);
  EXPECT_THROW((void)parse_snapshot_json(export_json(Registry{}) + "{}"),
               PreconditionError)
      << "text after the document";
  const std::string head = "{\"schema\": \"sarbp.metrics.v1\", ";
  EXPECT_THROW(
      (void)parse_snapshot_json(head + "\"counters\": {\"\\uZZZZ\": 1}}"),
      PreconditionError);
  EXPECT_THROW(
      (void)parse_snapshot_json(head + "\"counters\": {\"x\": 1, \"x\": 2}}"),
      PreconditionError)
      << "a repeated key";
}

TEST(JsonExport, WriteJsonFileRoundTrips) {
  Registry reg;
  reg.counter("c").add(9);
  const std::string path = ::testing::TempDir() + "sarbp_metrics_test.json";
  write_json_file(reg, path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const MetricsSnapshot snap = parse_snapshot_json(content);
  if constexpr (kEnabled) {
    EXPECT_EQ(snap.counters.at("c"), 9u);
  } else {
    EXPECT_EQ(snap, MetricsSnapshot{});  // the stub registry holds nothing
  }
}

TEST(QueueInstrumentation, NamedQueueExportsDepthAndCounters) {
  // Unique name: the global registry persists across tests in this binary.
  BoundedQueue<int> q(2, "obs_test.instrumented");
  auto& reg = registry();
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  EXPECT_EQ(reg.gauge("queue.obs_test.instrumented.depth").value(),
            when_on<std::int64_t>(2));
  EXPECT_FALSE(q.try_push(3));  // full; try_push does not count as blocked
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.close();
  q.close();  // idempotent: counted once
  EXPECT_EQ(reg.counter("queue.obs_test.instrumented.pushed").value(),
            when_on<std::uint64_t>(2));
  EXPECT_EQ(reg.counter("queue.obs_test.instrumented.popped").value(),
            when_on<std::uint64_t>(2));
  EXPECT_EQ(reg.counter("queue.obs_test.instrumented.close").value(),
            when_on<std::uint64_t>(1));
  EXPECT_EQ(reg.gauge("queue.obs_test.instrumented.depth").value(), 0);
  EXPECT_EQ(reg.gauge("queue.obs_test.instrumented.depth").max(),
            when_on<std::int64_t>(2));
}

TEST(QueueInstrumentation, BlockedPushAndPopAreCounted) {
  // The queue's behaviour holds in every build. Its counters only count
  // with telemetry compiled in: under -DSARBP_OBS=OFF they stay at zero,
  // so the test neither waits on them (it would spin forever) nor asserts
  // on them; the producer and the consumer then may or may not block.
  BoundedQueue<int> q(1, "obs_test.blocking");
  auto& reg = registry();
  const auto wait_for = [&reg](const char* name) {
    if constexpr (kEnabled) {
      while (reg.counter(name).value() == 0) std::this_thread::yield();
    }
  };
  ASSERT_TRUE(q.push(1));
  std::thread producer([&q] { (void)q.push(2); });  // blocks: queue full
  // Wait for the producer to actually block.
  wait_for("queue.obs_test.blocking.blocked_push");
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_EQ(q.pop(), 2);
  std::thread consumer([&q] { EXPECT_FALSE(q.pop().has_value()); });
  wait_for("queue.obs_test.blocking.blocked_pop");
  q.close();
  consumer.join();
  if constexpr (kEnabled) {
    EXPECT_GE(reg.counter("queue.obs_test.blocking.blocked_push").value(), 1u);
    EXPECT_GE(reg.counter("queue.obs_test.blocking.blocked_pop").value(), 1u);
  }
}

}  // namespace
}  // namespace sarbp::obs
