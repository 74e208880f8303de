// Massive fan-in benchmark: aggregate calls/sec against a real loopback
// TCP server through the epoll reactor, one call in flight vs. many.
//
// Three arms over the identical world, all on one client thread and one
// multiplexed connection:
//   serial  — sync pings, one at a time over a tcp-only table: each call
//             parks on its future, so this is the per-call roundtrip
//             floor;
//   reactor — N call_async futures in flight over the same table: frames
//             coalesce into gathered sendmsg batches and replies demux by
//             correlation id;
//   glue    — the reactor arm through glue[quota]->tcp: the capability
//             chain wrapped around the same async exchange, its reply
//             stage run where the reply settles.
// A fourth arm runs without the ORB:
//   bare    — a frame the size of the ping request echoed over a plain
//             blocking loopback TCP pair between two threads, no reactor:
//             the transport's own round trip.
// The headline numbers are the reactor/serial speedup at 1k concurrency
// (how much of the per-call cost pipelining hides) and serial/bare, the
// share of the sync TCP bearer's rate the ORB keeps: end to end over the
// bare round trip, HAM's measure of ORB overhead.  reactor/glue is what
// an async call pays for a capability chain (recorded, not gated).  The
// reactor arm also reports the frames per sendmsg batch of its timed
// loop (reactor.frames over reactor.batches): batching itself, which
// thread placement does not move the way it moves the serial arm's rate.
//
// Hand-rolled main (not google-benchmark): the fan-in arm needs a
// sliding window of futures, not a per-iteration callable.  Flags:
// --smoke (short run for CI), --json <path> (defaults to
// BENCH_fanin.json in the working directory), --metrics-port N
// (serve the live introspection exposition on N while the bench runs —
// CI scrapes it mid-soak to validate the exporter under real load),
// --metrics-hold SEC (keep the process and exporter alive that long
// after the arms finish, so a scraper always has a window).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/common/parse.hpp"
#include "ohpx/introspect/http_exporter.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Arm {
  std::string name;
  double calls_per_sec = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t inflight = 0;
  double frames_per_batch = 0.0;  // the reactor arms' sendmsg batching
};

Arm run_serial(scenario::EchoStub& stub, std::size_t warmup,
               std::size_t calls) {
  for (std::size_t i = 0; i < warmup; ++i) stub.ping();

  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) stub.ping();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  Arm arm;
  arm.name = "fanin/serial";
  arm.calls = calls;
  arm.inflight = 1;
  arm.calls_per_sec =
      seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  return arm;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// The bare round trip.  The message is what the reactor puts on the wire
// for a ping: length prefix, header, correlation id, no arguments (the
// bench sets no deadline and no trace sink).  The echo thread returns
// each message as it arrives; TCP_NODELAY on both ends, as in the ORB.
Arm run_bare(std::size_t warmup, std::size_t calls) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.flags = wire::kFlagCorrelation;
  header.correlation_id = 1;
  header.method_or_code = scenario::EchoServant::kPing;
  const wire::Buffer frame = wire::encode_frame(header, {});
  std::vector<std::uint8_t> message(transport::kFramePrefixSize);
  transport::store_frame_prefix(message.data(),
                                static_cast<std::uint32_t>(frame.size()));
  message.insert(message.end(), frame.data(), frame.data() + frame.size());

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len);
  ::listen(listener, 1);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  const int connected =
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const int server = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::thread echo([server, size = message.size()] {
    std::vector<std::uint8_t> in(size);
    while (recv_all(server, in.data(), size) &&
           send_all(server, in.data(), size)) {
    }
    ::close(server);
  });

  std::vector<std::uint8_t> reply(message.size());
  bool ok = connected == 0 && server >= 0;
  auto round_trip = [&] {
    ok = ok && send_all(client, message.data(), message.size()) &&
         recv_all(client, reply.data(), reply.size());
  };
  for (std::size_t i = 0; i < warmup; ++i) round_trip();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) round_trip();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::shutdown(client, SHUT_RDWR);
  ::close(client);
  echo.join();

  Arm arm;
  arm.name = "fanin/bare";
  arm.calls = calls;
  arm.inflight = 1;
  arm.calls_per_sec =
      ok && seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  return arm;
}

Arm run_reactor(std::string name, scenario::EchoStub& stub,
                std::size_t warmup, std::size_t calls, std::size_t inflight) {
  for (std::size_t i = 0; i < warmup; ++i) stub.ping();

  // Sliding window: keep `inflight` futures outstanding; replies come
  // back in submission order (one connection, FIFO server), so draining
  // the oldest future frees exactly one window slot.
  std::vector<ohpx::Future<std::uint64_t>> window;
  window.reserve(calls);
  std::size_t drained = 0;
  // Every frame the reactor sends, a leader's included, goes out in a
  // counted sendmsg batch.
  auto& registry = metrics::MetricsRegistry::global();
  const auto* frames = registry.counter_handle(metrics::names::kReactorFrames);
  const auto* batches =
      registry.counter_handle(metrics::names::kReactorBatches);
  const std::uint64_t frames_before = frames->load();
  const std::uint64_t batches_before = batches->load();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    if (i - drained >= inflight) window[drained++].get();
    window.push_back(
        stub.call_async<std::uint64_t>(scenario::EchoServant::kPing));
  }
  while (drained < window.size()) window[drained++].get();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const std::uint64_t sent = frames->load() - frames_before;
  const std::uint64_t sendmsgs = batches->load() - batches_before;

  Arm arm;
  arm.name = std::move(name);
  arm.calls = calls;
  arm.inflight = inflight;
  arm.calls_per_sec =
      seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  arm.frames_per_batch =
      sendmsgs > 0 ? static_cast<double>(sent) / static_cast<double>(sendmsgs)
                   : 0.0;
  return arm;
}

int run(int argc, char** argv) {
  std::string json_path = consume_json_flag(argc, argv);
  if (json_path.empty()) json_path = "BENCH_fanin.json";
  bool smoke = false;
  std::uint16_t metrics_port = 0;
  bool serve_metrics = false;
  double metrics_hold_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      // Port 0 is valid: the kernel picks, and the bench prints the
      // bound port for the scraper.
      const auto port = parse_number(argv[++i], 0, 65535);
      if (!port) {
        std::fprintf(stderr, "fanin: --metrics-port wants 0-65535, got '%s'\n",
                     argv[i]);
        return 2;
      }
      metrics_port = static_cast<std::uint16_t>(*port);
      serve_metrics = true;
    } else if (arg == "--metrics-hold" && i + 1 < argc) {
      const auto seconds = parse_decimal(argv[++i], 0.0, 86400.0);
      if (!seconds) {
        std::fprintf(stderr,
                     "fanin: --metrics-hold wants seconds in [0, 86400], "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      metrics_hold_s = *seconds;
    }
  }

  std::optional<introspect::IntrospectHttpServer> exporter;
  if (serve_metrics) {
    exporter.emplace(metrics_port);
    std::printf("fanin: metrics exporter on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(exporter->port()));
    std::fflush(stdout);
  }
  // The fan-in arms run 1k calls in flight (the reactor window defaults
  // to 1024, so 1000 never trips backpressure); the serial arm is slower
  // per call, so it runs fewer total calls for comparable wall time.
  const std::size_t inflight = smoke ? 256 : 1000;
  const std::size_t warmup = smoke ? 200 : 2000;
  const std::size_t serial_calls = smoke ? 2048 : 20000;
  const std::size_t reactor_calls = smoke ? 20000 : 200000;

  runtime::World world;
  const auto lan = world.add_lan("lan");
  const auto m_client = world.add_machine("client", lan);
  const auto m_server = world.add_machine("server", lan);
  orb::Context& client_ctx = world.create_context(m_client);
  orb::Context& server_ctx = world.create_context(m_server);
  server_ctx.enable_tcp();

  auto ref =
      orb::RefBuilder(server_ctx, std::make_shared<scenario::EchoServant>())
          .tcp()
          .build();
  scenario::EchoStub stub(client_ctx, ref);
  // A quota the run never spends: admission runs on every call.
  auto glue_ref =
      orb::RefBuilder(server_ctx, std::make_shared<scenario::EchoServant>())
          .glue({std::make_shared<cap::QuotaCapability>(
                    std::numeric_limits<std::uint64_t>::max())},
                "tcp")
          .build();
  scenario::EchoStub glue_stub(client_ctx, glue_ref);

  Arm serial = run_serial(stub, warmup, serial_calls);
  Arm bare = run_bare(warmup, serial_calls);
  Arm reactor =
      run_reactor("fanin/reactor", stub, warmup, reactor_calls, inflight);
  Arm glue =
      run_reactor("fanin/glue", glue_stub, warmup, reactor_calls, inflight);
  const double speedup = serial.calls_per_sec > 0.0
                             ? reactor.calls_per_sec / serial.calls_per_sec
                             : 0.0;
  const double serial_over_bare =
      bare.calls_per_sec > 0.0 ? serial.calls_per_sec / bare.calls_per_sec
                               : 0.0;
  const double reactor_over_glue =
      glue.calls_per_sec > 0.0 ? reactor.calls_per_sec / glue.calls_per_sec
                               : 0.0;

  std::printf("fanin: tcp ping over loopback%s\n", smoke ? " (smoke)" : "");
  for (const Arm* arm : {&serial, &bare, &reactor, &glue}) {
    std::printf("  %-22s %12.0f calls/s   (%llu calls, %llu in flight)\n",
                arm->name.c_str(), arm->calls_per_sec,
                static_cast<unsigned long long>(arm->calls),
                static_cast<unsigned long long>(arm->inflight));
  }
  std::printf("  speedup (reactor / serial @ %zu in flight): %.2fx\n",
              inflight, speedup);
  std::printf("  frames per sendmsg batch: reactor %.1f, glue %.1f\n",
              reactor.frames_per_batch, glue.frames_per_batch);
  std::printf("  serial / bare round trip: %.3f\n", serial_over_bare);
  std::printf("  reactor / glue[quota]->tcp: %.2fx\n", reactor_over_glue);

  std::vector<JsonRecord> records;
  for (const Arm* arm : {&serial, &bare, &reactor, &glue}) {
    records.push_back(JsonRecord{
        arm->name,
        {{"calls_per_sec", arm->calls_per_sec},
         {"calls", static_cast<double>(arm->calls)},
         {"inflight", static_cast<double>(arm->inflight)}}});
  }
  records.push_back(JsonRecord{"fanin/speedup",
                               {{"reactor_over_serial", speedup},
                                {"serial_over_bare", serial_over_bare},
                                {"reactor_over_glue", reactor_over_glue},
                                {"reactor_frames_per_batch",
                                 reactor.frames_per_batch},
                                {"inflight", static_cast<double>(inflight)}}});
  if (!write_json_records(json_path, records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());
  if (exporter && metrics_hold_s > 0.0) {
    std::printf("fanin: holding exporter open for %.1fs\n", metrics_hold_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(metrics_hold_s));
  }
  return 0;
}

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::run(argc, argv); }
