// Tests for the metrics module and the ORB's instrumentation of it.
#include <gtest/gtest.h>

#include <thread>

#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx::metrics {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;
using scenario::EchoStub;

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.mean().count(), 0);
  EXPECT_EQ(histogram.approximate_quantile_us(0.5), 0u);
}

TEST(Histogram, RecordsAndBuckets) {
  LatencyHistogram histogram;
  histogram.record(std::chrono::microseconds(1));    // bucket 0 (<2us)
  histogram.record(std::chrono::microseconds(3));    // [2,4)
  histogram.record(std::chrono::microseconds(100));  // [64,128)
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.total(), Nanoseconds(104'000));

  const auto buckets = histogram.buckets();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  std::uint64_t spread = 0;
  for (const auto b : buckets) spread += b;
  EXPECT_EQ(spread, 3u);
}

TEST(Histogram, QuantileMonotone) {
  LatencyHistogram histogram;
  for (int i = 0; i < 90; ++i) histogram.record(std::chrono::microseconds(10));
  for (int i = 0; i < 10; ++i) histogram.record(std::chrono::milliseconds(10));
  const auto p50 = histogram.approximate_quantile_us(0.5);
  const auto p99 = histogram.approximate_quantile_us(0.99);
  EXPECT_LE(p50, 16u);      // 10us lands in [8,16)
  EXPECT_GE(p99, 8192u);    // 10ms is way up the scale
  EXPECT_LE(p50, p99);
}

TEST(Registry, CountersAccumulate) {
  MetricsRegistry registry;
  registry.increment("a");
  registry.increment("a", 4);
  registry.increment("b");
  EXPECT_EQ(registry.counter("a"), 5u);
  EXPECT_EQ(registry.counter("b"), 1u);
  EXPECT_EQ(registry.counter("missing"), 0u);
  registry.reset();
  EXPECT_EQ(registry.counter("a"), 0u);
}

TEST(Registry, LatencyByName) {
  MetricsRegistry registry;
  registry.record_latency("x", std::chrono::microseconds(5));
  registry.record_latency("x", std::chrono::microseconds(15));
  const LatencyHistogram* histogram = registry.histogram("x");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count(), 2u);
  EXPECT_EQ(registry.histogram("missing"), nullptr);
}

TEST(Registry, SnapshotCapturesEverything) {
  MetricsRegistry registry;
  registry.increment("calls", 3);
  registry.record_latency("lat", std::chrono::microseconds(10));
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("calls"), 3u);
  EXPECT_EQ(snap.latency_counts.at("lat"), 1u);
  EXPECT_NEAR(snap.latency_mean_us.at("lat"), 10.0, 0.5);
  // 10us lands in bucket [8,16): the approximate quantiles report the
  // bucket upper bound for every percentile of a single-sample histogram.
  EXPECT_EQ(snap.latency_quantiles.at("lat").p50_us, 16u);
  EXPECT_EQ(snap.latency_quantiles.at("lat").p95_us, 16u);
  EXPECT_EQ(snap.latency_quantiles.at("lat").p99_us, 16u);
}

TEST(Registry, ScopedLatencyViaInternedHandle) {
  MetricsRegistry registry;
  LatencyHistogram* handle = registry.latency_handle("interned");
  { ScopedLatency sample(handle); }
  EXPECT_EQ(handle->count(), 1u);
  EXPECT_EQ(registry.histogram("interned"), handle);
}

TEST(Registry, ScopedLatencyRecords) {
  // Bracketed by two stopwatches on the same steady clock: the sample
  // spans at least the one started inside the scope and at most the one
  // started before it, so it is the scope's own elapsed time.
  MetricsRegistry registry;
  Nanoseconds inside{0};
  const Stopwatch outside;
  {
    ScopedLatency sample(registry, "scoped");
    const Stopwatch inner;
    inside = inner.elapsed();
  }
  const Nanoseconds bound = outside.elapsed();
  ASSERT_NE(registry.histogram("scoped"), nullptr);
  EXPECT_EQ(registry.histogram("scoped")->count(), 1u);
  EXPECT_GE(registry.histogram("scoped")->total(), inside);
  EXPECT_LE(registry.histogram("scoped")->total(), bound);
}

TEST(Registry, ThreadSafeIncrements) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) registry.increment("shared");
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared"), 4000u);
}

TEST(Registry, FormatSnapshotReadable) {
  MetricsRegistry registry;
  registry.increment("rmi.calls", 12);
  registry.record_latency("rmi.latency", std::chrono::microseconds(30));
  const std::string text = format_snapshot(registry.snapshot());
  EXPECT_NE(text.find("rmi.calls"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
  EXPECT_NE(text.find("rmi.latency"), std::string::npos);
  EXPECT_NE(text.find("samples"), std::string::npos);
  // Tail columns: 30us lands in bucket [16,32), so every quantile reports
  // the 32us bucket bound.
  EXPECT_NE(text.find("p50 32 us"), std::string::npos);
  EXPECT_NE(text.find("p95 32 us"), std::string::npos);
  EXPECT_NE(text.find("p99 32 us"), std::string::npos);
}

// ---- ORB instrumentation -------------------------------------------------------

TEST(OrbInstrumentation, CallsAndProtocolsCounted) {
  auto& registry = MetricsRegistry::global();
  registry.reset();

  runtime::World world;
  const auto lan = world.add_lan("lan");
  const auto m0 = world.add_machine("m0", lan);
  const auto m1 = world.add_machine("m1", lan);
  orb::Context& client = world.create_context(m0);
  orb::Context& server = world.create_context(m1);

  auto ref = orb::RefBuilder(server, std::make_shared<EchoServant>()).build();
  EchoPointer gp(client, ref);
  gp->ping();
  gp->ping();

  EXPECT_EQ(registry.counter("rmi.calls"), 2u);
  EXPECT_EQ(registry.counter("rmi.calls.nexus-tcp"), 2u);
  EXPECT_EQ(registry.counter("server.requests"), 2u);
  ASSERT_NE(registry.histogram("rmi.latency"), nullptr);
  EXPECT_EQ(registry.histogram("rmi.latency")->count(), 2u);

  try {
    gp->fail();
  } catch (const RemoteError&) {
  }
  EXPECT_EQ(registry.counter("rmi.errors.remote_application_error"), 1u);
  EXPECT_EQ(registry.counter("server.errors.remote_application_error"), 1u);
  registry.reset();
}

// The reactor's internal counters must surface in the ordinary registry
// snapshot — the introspection exporter (and ohpx-top) reads nothing else.
TEST(OrbInstrumentation, ReactorCountersSurfaceInSnapshot) {
  auto& registry = MetricsRegistry::global();

  runtime::World world;
  const auto lan = world.add_lan("lan");
  const auto m0 = world.add_machine("m0", lan);
  const auto m1 = world.add_machine("m1", lan);
  orb::Context& client = world.create_context(m0);
  orb::Context& server = world.create_context(m1);
  server.enable_tcp();

  auto ref = orb::RefBuilder(server, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(client, ref);
  const std::uint64_t batches_before = registry.counter("reactor.batches");
  const std::uint64_t frames_before = registry.counter("reactor.frames");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(stub.call_async<std::uint64_t>(scenario::EchoServant::kPing)
                  .get(),
              static_cast<std::uint64_t>(i + 1));
  }

  const MetricsSnapshot snap = registry.snapshot();
  // Accumulating counters moved with the traffic.
  EXPECT_GE(snap.counters.at("reactor.batches"), batches_before + 4);
  EXPECT_GE(snap.counters.at("reactor.frames"), frames_before + 4);
  // Histograms: every tick samples loop lag; every gather batch samples
  // its frame count.
  EXPECT_GE(snap.latency_counts.at("reactor.loop_lag"), 1u);
  EXPECT_GE(snap.latency_counts.at("reactor.batch_frames"), 1u);
  // Gauges and cold-path counters are interned at reactor construction,
  // so their keys exist (possibly zero) in every snapshot thereafter.
  EXPECT_EQ(snap.counters.count("reactor.inflight"), 1u);
  EXPECT_EQ(snap.counters.count("reactor.connections"), 1u);
  EXPECT_EQ(snap.counters.count("reactor.backpressure"), 1u);
  EXPECT_EQ(snap.counters.count("reactor.reconnects"), 1u);
  EXPECT_EQ(snap.counters.count("rmi.reactor.stall"), 1u);
}

// Per-context dispatch series ride alongside the aggregate server ones.
// Dispatch timing is armed by the introspection plane (cost contract in
// metrics.hpp); the test arms it the same way a process with an
// exporter would be.
TEST(OrbInstrumentation, PerContextDispatchSeries) {
  enable_deep_timing();
  auto& registry = MetricsRegistry::global();

  runtime::World world;
  const auto lan = world.add_lan("lan");
  const auto m0 = world.add_machine("m0", lan);
  const auto m1 = world.add_machine("m1", lan);
  orb::Context& client = world.create_context(m0);
  orb::Context& server = world.create_context(m1);

  auto ref = orb::RefBuilder(server, std::make_shared<EchoServant>()).build();
  EchoPointer gp(client, ref);
  const std::string requests_key =
      "server.ctx.requests." + std::to_string(server.id());
  const std::string latency_key =
      "server.ctx.latency." + std::to_string(server.id());
  const std::uint64_t requests_before = registry.counter(requests_key);
  gp->ping();
  gp->ping();
  gp->ping();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at(requests_key), requests_before + 3);
  EXPECT_GE(snap.latency_counts.at(latency_key), 3u);
  EXPECT_GE(snap.latency_counts.at("server.dispatch"),
            snap.latency_counts.at(latency_key));
}

// A frame that does not decode never reaches Context::dispatch, but it is
// a request all the same: every dispatch series counts it once.
TEST(OrbInstrumentation, UndecodableFrameCountedOnEveryDispatchSeries) {
  enable_deep_timing();
  auto& registry = MetricsRegistry::global();

  runtime::World world;
  const auto lan = world.add_lan("lan");
  orb::Context& server = world.create_context(world.add_machine("m0", lan));
  const std::string requests_key =
      "server.ctx.requests." + std::to_string(server.id());
  const std::string latency_key =
      "server.ctx.latency." + std::to_string(server.id());
  const auto latency_count = [](const MetricsSnapshot& snap,
                                const std::string& name) -> std::uint64_t {
    const auto it = snap.latency_counts.find(name);
    return it == snap.latency_counts.end() ? 0 : it->second;
  };

  const MetricsSnapshot before = registry.snapshot();
  const std::uint64_t requests_before = registry.counter("server.requests");
  const std::uint64_t ctx_requests_before = registry.counter(requests_key);
  (void)server.handle_frame(wire::Buffer(Bytes(64, 0x77)).view());
  const MetricsSnapshot after = registry.snapshot();

  EXPECT_EQ(registry.counter("server.requests"), requests_before + 1);
  EXPECT_EQ(registry.counter(requests_key), ctx_requests_before + 1);
  EXPECT_EQ(latency_count(after, latency_key),
            latency_count(before, latency_key) + 1);
  EXPECT_EQ(latency_count(after, "server.dispatch"),
            latency_count(before, "server.dispatch") + 1);
}

}  // namespace
}  // namespace ohpx::metrics
