// The live introspection plane: Prometheus exposition rendering, the HTTP
// exporter, the Introspect management servant over ohpx RMI, the flight
// recorder's bounded ring, and the reactor stall watchdog.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/introspect/exposition.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/introspect/http_exporter.hpp"
#include "ohpx/introspect/servant.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/resilience/breaker.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx::introspect {
namespace {

using scenario::EchoServant;
using scenario::EchoStub;

// Minimal blocking HTTP GET against 127.0.0.1:port (tests may use raw
// sockets; the src/ blocking-socket lint rule does not apply here).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

// ---- registry-family rendering --------------------------------------------

TEST(Exposition, RendersCountersGaugesAndSummaries) {
  metrics::MetricsRegistry registry;
  registry.increment(metrics::names::kRmiCalls, 7);
  registry.increment(metrics::names::kReactorInflight, 3);  // gauge name
  registry.increment(metrics::names::protocol_calls("nexus-tcp"), 5);
  registry.increment(metrics::names::rmi_error("deadline_exceeded"), 2);
  registry.record_latency(metrics::names::kRmiLatency,
                          std::chrono::microseconds(100));
  registry.record_latency(metrics::names::context_latency(3),
                          std::chrono::microseconds(10));

  const std::string text = render_registry_families(registry.snapshot());

  EXPECT_NE(text.find("# TYPE ohpx_rmi_calls_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ohpx_rmi_calls_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_reactor_inflight gauge"),
            std::string::npos);
  EXPECT_NE(text.find(
                "ohpx_rmi_protocol_calls_total{protocol=\"nexus-tcp\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("ohpx_rmi_errors_total{code=\"deadline_exceeded\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_rmi_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("ohpx_rmi_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ohpx_rmi_latency_us_count 1"), std::string::npos);
  // The per-context histogram routes through the prefix family with a
  // context label merged into the quantile series.
  EXPECT_NE(text.find("ohpx_server_context_latency_us{context=\"3\", "
                      "quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ohpx_server_context_latency_us_count{context=\"3\"}"),
            std::string::npos);
}

TEST(Exposition, DeclaresEachFamilyOnce) {
  metrics::MetricsRegistry registry;
  registry.increment(metrics::names::protocol_calls("a"), 1);
  registry.increment(metrics::names::protocol_calls("b"), 1);
  const std::string text = render_registry_families(registry.snapshot());
  std::size_t declarations = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE ohpx_rmi_protocol_calls_total", pos)) !=
       std::string::npos;
       ++pos) {
    ++declarations;
  }
  EXPECT_EQ(declarations, 1u);
}

// ---- the full process exposition ------------------------------------------

TEST(Exposition, FullPayloadCarriesReactorAndResilienceFamilies) {
  const std::string text = render_exposition();
  // Reactor families are present even before traffic — the renderer
  // constructs the global reactor, whose constructor interns them.
  EXPECT_NE(text.find("# TYPE ohpx_reactor_loop_lag_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_reactor_inflight gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_reactor_backpressure_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_breaker_state gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_rmi_select_cache_hit_ratio gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_retry_policy_revision gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_wire_pool_pooled gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_flight_recorder_retained gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ohpx_reactor_inflight_window"), std::string::npos);
}

TEST(Exposition, BreakerStatesRenderWithLabels) {
  runtime::World world;
  const auto lan = world.add_lan("lan");
  orb::Context& client = world.create_context(world.add_machine("c", lan));
  orb::Context& server = world.create_context(world.add_machine("s", lan));
  auto ref = orb::RefBuilder(server, std::make_shared<EchoServant>()).build();
  EchoStub stub(client, ref);
  resilience::BreakerConfig config;
  config.failure_threshold = 3;
  stub.set_breaker_config(config);
  stub.ping();

  const std::string label = "obj/" + std::to_string(ref.object_id());
  const std::string text = render_exposition();
  EXPECT_NE(text.find("ohpx_breaker_state{set=\"" + label + "\""),
            std::string::npos)
      << text;
  // All closed: every series of this set reports 0.
  EXPECT_NE(text.find("\"} 0"), std::string::npos);

  // Disabling the breakers removes the registration again.
  stub.set_breaker_config(resilience::BreakerConfig{});
  EXPECT_EQ(render_exposition().find("ohpx_breaker_state{set=\"" + label),
            std::string::npos);
}

// ---- HTTP exporter ---------------------------------------------------------

TEST(HttpExporter, ServesMetricsHealthAndFlightRecorder) {
  IntrospectHttpServer server(0);
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(body_of(metrics).find("# TYPE ohpx_reactor_loop_lag_us summary"),
            std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  FlightRecorder::global().record(EventKind::error, ErrorCode::transport_io,
                                  "http-exporter-test");
  const std::string flight = http_get(server.port(), "/flightrecorder");
  EXPECT_NE(flight.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body_of(flight).find("http-exporter-test"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  // Query strings are stripped before routing.
  const std::string with_query = http_get(server.port(), "/healthz?x=1");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);
}

// ---- the management servant over RMI --------------------------------------

TEST(IntrospectServantTest, MetricsReachableOverRmi) {
  runtime::World world;
  const auto lan = world.add_lan("lan");
  orb::Context& client = world.create_context(world.add_machine("c", lan));
  orb::Context& server = world.create_context(world.add_machine("s", lan));

  auto ref =
      orb::RefBuilder(server, std::make_shared<IntrospectServant>()).build();
  IntrospectPointer gp(client, ref);

  EXPECT_EQ(gp->health(), "ok");
  const std::string text = gp->metrics_text();
  EXPECT_NE(text.find("# TYPE ohpx_rmi_calls_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ohpx_breaker_state gauge"), std::string::npos);

  FlightRecorder::global().record(EventKind::retry, ErrorCode::transport_io,
                                  "rmi-introspect-test");
  EXPECT_NE(gp->flight_recorder().find("rmi-introspect-test"),
            std::string::npos);
}

// ---- flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, RingIsBoundedAndOrdered) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  const std::uint64_t base_total = recorder.total_recorded();

  const std::size_t overfill = recorder.capacity() + 50;
  for (std::size_t i = 0; i < overfill; ++i) {
    recorder.record(EventKind::retry, ErrorCode::transport_io,
                    "event-" + std::to_string(i));
  }
  EXPECT_EQ(recorder.size(), recorder.capacity());
  EXPECT_EQ(recorder.total_recorded(), base_total + overfill);

  const std::vector<FlightRecorder::Record> records = recorder.snapshot();
  ASSERT_EQ(records.size(), recorder.capacity());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1) << "ring out of order";
  }
  // The oldest retained record is overfill - capacity; the newest is the
  // last one written.
  EXPECT_STREQ(records.back().detail,
               ("event-" + std::to_string(overfill - 1)).c_str());

  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("retry"), std::string::npos);
  EXPECT_NE(dump.find("event-" + std::to_string(overfill - 1)),
            std::string::npos);
  recorder.clear();
}

TEST(FlightRecorderTest, CapturesAmbientTraceContext) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  {
    trace::ContextScope scope(trace::mint_root());
    const trace::TraceContext ambient = trace::current_context();
    ASSERT_TRUE(ambient.valid());
    recorder.record(EventKind::error, ErrorCode::transport_io, "traced");
    const auto records = recorder.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].trace_hi, ambient.trace_hi);
    EXPECT_EQ(records[0].trace_lo, ambient.trace_lo);
  }
  recorder.clear();
  recorder.record(EventKind::error, ErrorCode::transport_io, "untraced");
  EXPECT_EQ(recorder.snapshot().at(0).trace_hi, 0u);
  recorder.clear();
}

TEST(FlightRecorderTest, DetailIsTruncatedSafely) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  recorder.record(EventKind::error, ErrorCode::internal,
                  std::string(500, 'x'));
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::strlen(records[0].detail),
            FlightRecorder::kDetailCapacity - 1);
  recorder.clear();
}

// ---- the anomaly table -----------------------------------------------------

// Every kind, one anomaly() call: each counter its row names moves by
// `count` (and no other table counter moves), the recorder gains exactly
// one entry with that kind, code and detail, and an always-sampled trace
// gains exactly one event under the row's name, annotated with the code.
TEST(AnomalyTable, EachKindReachesEverySinkExactlyOnce) {
  auto& registry = metrics::MetricsRegistry::global();
  FlightRecorder& recorder = FlightRecorder::global();
  trace::TraceSink::global().set_sampling(trace::Sampling::always);

  for (const AnomalyRow& row : kAnomalyTable) {
    SCOPED_TRACE(row.name);
    EXPECT_STREQ(to_string(row.kind), row.name);
    const std::uint64_t count =
        row.kind == EventKind::deadline_sweep ? 3 : 1;

    std::map<std::string, std::uint64_t> expected;
    for (const AnomalyRow& other : kAnomalyTable) {
      for (const char* name : other.counters) {
        if (name != nullptr) expected[name] = registry.counter(name);
      }
    }
    for (const char* name : row.counters) {
      if (name != nullptr) expected[name] += count;
    }
    recorder.clear();
    trace::TraceSink::global().clear();
    {
      trace::ContextScope scope(trace::mint_root());
      anomaly(row.kind, ErrorCode::transport_io, "anomaly-sweep", count);
    }

    for (const auto& [name, value] : expected) {
      EXPECT_EQ(registry.counter(name), value) << name;
    }
    std::size_t entries = 0;
    for (const auto& record : recorder.snapshot()) {
      if (std::string_view(record.detail) != "anomaly-sweep") continue;
      ++entries;
      EXPECT_EQ(record.kind, row.kind);
      EXPECT_EQ(record.code,
                static_cast<std::uint16_t>(ErrorCode::transport_io));
    }
    EXPECT_EQ(entries, 1u);
    const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_STREQ(snap.spans[0].name, row.event);
    EXPECT_EQ(snap.spans[0].kind, trace::SpanKind::event);
    EXPECT_STREQ(snap.spans[0].annotation, "transport_io");
  }

  // An anomaly with no error code is annotated with its detail.
  trace::TraceSink::global().clear();
  {
    trace::ContextScope scope(trace::mint_root());
    anomaly(EventKind::breaker_close, ErrorCode::ok, "tcp");
  }
  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_STREQ(snap.spans[0].annotation, "tcp");

  trace::TraceSink::global().set_sampling(trace::Sampling::off);
  trace::TraceSink::global().clear();
  recorder.clear();
}

// ---- stall watchdog --------------------------------------------------------

TEST(StallWatchdog, LoopLagOverThresholdCountsAndRecords) {
  runtime::World world;
  const auto lan = world.add_lan("lan");
  orb::Context& client = world.create_context(world.add_machine("c", lan));
  orb::Context& server = world.create_context(world.add_machine("s", lan));
  server.enable_tcp();
  auto ref = orb::RefBuilder(server, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(client, ref);

  auto& reactor = transport::Reactor::global();
  const Nanoseconds previous = reactor.stall_threshold();
  reactor.set_stall_threshold(Nanoseconds(1));  // every tick "stalls"

  auto* stall_counter = metrics::MetricsRegistry::global().counter_handle(
      metrics::names::kRmiReactorStall);
  const std::uint64_t before = stall_counter->load(std::memory_order_relaxed);

  // Drive traffic through the reactor so ticks happen.
  for (int i = 0; i < 8; ++i) {
    stub.call_async<std::uint64_t>(EchoServant::kPing).get();
  }
  reactor.set_stall_threshold(previous);

  EXPECT_GT(stall_counter->load(std::memory_order_relaxed), before)
      << "a 1ns threshold must flag every reactor tick as a stall";

  // The watchdog also drops flight-recorder evidence.
  bool saw_stall = false;
  for (const auto& record : FlightRecorder::global().snapshot()) {
    if (record.kind == EventKind::stall) saw_stall = true;
  }
  EXPECT_TRUE(saw_stall);
  FlightRecorder::global().clear();
}

// ---- exporter vs. writers under load (TSan-targeted) -----------------------

TEST(ExporterConcurrency, SerializesWhileWritersHammer) {
  auto& registry = metrics::MetricsRegistry::global();
  auto* counter =
      registry.counter_handle("introspect.test.hammered_counter");
  auto* histogram =
      registry.latency_handle("introspect.test.hammered_latency");
  counter->store(0, std::memory_order_relaxed);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter->fetch_add(1, std::memory_order_relaxed);
        histogram->record(std::chrono::microseconds(7));
      }
    });
  }

  std::uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string text = render_exposition();
    EXPECT_NE(text.find("ohpx_introspect_test_hammered_counter_total"),
              std::string::npos);
    const metrics::MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t now =
        snap.counters.at("introspect.test.hammered_counter");
    EXPECT_GE(now, last_count) << "counter must be monotone across scrapes";
    last_count = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& writer : writers) writer.join();
  EXPECT_GT(counter->load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace ohpx::introspect
