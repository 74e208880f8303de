// Unit tests for the transport layer: endpoint registry, in-process
// channel, simulated-network channel cost accounting, and the real TCP
// listener driven by the reactor (loopback sockets).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/sim.hpp"
#include "ohpx/transport/tcp.hpp"

namespace ohpx::transport {
namespace {

wire::Buffer make_payload(std::string_view text) {
  return wire::Buffer(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size());
}

FrameHandler upper_caser() {
  return [](const wire::Buffer& request) {
    wire::Buffer reply = request;
    for (auto& b : reply.mutable_view()) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    return reply;
  };
}

// ---- endpoint registry ----------------------------------------------------------

TEST(EndpointRegistryTest, BindLookupUnbind) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-1";
  registry.bind(name, upper_caser());
  EXPECT_TRUE(registry.contains(name));
  FrameHandler handler = registry.lookup(name);
  EXPECT_EQ(handler(make_payload("hi")).bytes(), bytes_of("HI"));
  registry.unbind(name);
  EXPECT_FALSE(registry.contains(name));
}

TEST(EndpointRegistryTest, LookupMissingThrows) {
  try {
    EndpointRegistry::instance().lookup("test/no-such");
    FAIL();
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_unknown_endpoint);
  }
}

TEST(EndpointRegistryTest, RebindReplacesHandler) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-rebind";
  registry.bind(name, [](const wire::Buffer&) { return make_payload("old"); });
  registry.bind(name, [](const wire::Buffer&) { return make_payload("new"); });
  EXPECT_EQ(registry.lookup(name)(make_payload("")).bytes(), bytes_of("new"));
  registry.unbind(name);
}

// ---- in-process channel -----------------------------------------------------------

TEST(InProcChannelTest, RoundTripAndLedger) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/inproc", upper_caser());

  InProcChannel channel("test/inproc");
  CostLedger ledger;
  wire::Buffer reply = channel.roundtrip(make_payload("abc"), ledger);
  EXPECT_EQ(reply.bytes(), bytes_of("ABC"));
  EXPECT_EQ(ledger.bytes_sent(), 3u);
  EXPECT_EQ(ledger.bytes_received(), 3u);
  EXPECT_EQ(ledger.modeled().count(), 0);
  EXPECT_EQ(channel.describe(), "inproc:test/inproc");

  registry.unbind("test/inproc");
}

TEST(InProcChannelTest, ResolvesPerCall) {
  auto& registry = EndpointRegistry::instance();
  InProcChannel channel("test/latebound");
  CostLedger ledger;
  // Endpoint does not exist yet.
  EXPECT_THROW(channel.roundtrip(make_payload("x"), ledger), TransportError);
  // Binding afterwards makes the same channel object work (migration
  // depends on this late-binding behaviour).
  registry.bind("test/latebound", upper_caser());
  EXPECT_EQ(channel.roundtrip(make_payload("x"), ledger).bytes(), bytes_of("X"));
  registry.unbind("test/latebound");
}

// ---- simulated-network channel -------------------------------------------------------

TEST(SimChannelTest, ChargesModeledTimeBothWays) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/sim", upper_caser());

  netsim::LinkSpec link{"lab", 8e6, Nanoseconds(1000)};  // 1 MB/s, 1 us
  SimChannel channel("test/sim", link);
  CostLedger ledger;
  channel.roundtrip(make_payload(std::string(1000, 'a')), ledger);
  // Each direction: 1000 ns latency + 1000 bytes / 1 MBps = 1 ms.
  const double modeled_ms =
      static_cast<double>(ledger.modeled().count()) / 1e6;
  EXPECT_NEAR(modeled_ms, 2.002, 0.01);

  registry.unbind("test/sim");
}

TEST(SimChannelTest, LinkProviderReevaluatedPerCall) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/sim2", upper_caser());

  std::atomic<int> calls{0};
  SimChannel channel("test/sim2", [&calls]() {
    ++calls;
    return netsim::LinkSpec{"dyn", 1e9, Nanoseconds(10)};
  });
  CostLedger ledger;
  channel.roundtrip(make_payload("a"), ledger);
  channel.roundtrip(make_payload("b"), ledger);
  EXPECT_GE(calls.load(), 2);

  registry.unbind("test/sim2");
}

// ---- real TCP ---------------------------------------------------------------------------
//
// The listener serves wire frames; the client side is the reactor, the one
// TCP client path.  Replies echo the request header (and therefore its
// correlation id) with the body upper-cased, so a passing exchange proves
// the server, not a loopback of the request, produced the reply.

FrameHandler frame_upper_caser() {
  return [](const wire::Buffer& frame) {
    BytesView body;
    wire::MessageHeader header = wire::decode_frame(frame.view(), body);
    header.type = wire::MessageType::reply;
    wire::Buffer reply_body(body.data(), body.size());
    for (auto& b : reply_body.mutable_view()) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    return wire::encode_frame(header, reply_body.view());
  };
}

Future<RawReply> submit(std::uint16_t port, std::string_view text,
                        std::uint64_t request_id = 1) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = request_id;
  return Reactor::global().submit(
      "127.0.0.1", port, header,
      BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

wire::Buffer roundtrip(std::uint16_t port, std::string_view text) {
  return submit(port, text).get().payload;
}

TEST(TcpTest, RoundTripOverLoopback) {
  TcpListener listener(0, frame_upper_caser());
  ASSERT_GT(listener.port(), 0);

  const RawReply reply = submit(listener.port(), "hello tcp", 42).get();
  EXPECT_EQ(reply.payload.bytes(), bytes_of("HELLO TCP"));
  EXPECT_EQ(reply.header.type, wire::MessageType::reply);
  EXPECT_EQ(reply.header.request_id, 42u);
  EXPECT_EQ(reply.frame_size, wire::kHeaderSize + 9u + /*correlation*/ 8u);
}

TEST(TcpTest, LargeFrames) {
  TcpListener listener(0, frame_upper_caser());
  const std::string big(4 * 1024 * 1024, 'z');
  const wire::Buffer reply = roundtrip(listener.port(), big);
  ASSERT_EQ(reply.size(), big.size());
  EXPECT_EQ(reply.data()[0], 'Z');
  EXPECT_EQ(reply.data()[big.size() - 1], 'Z');
}

TEST(TcpTest, SequentialRequestsOnOneConnection) {
  // The listener serves each connection on its own thread, so one serving
  // thread across all 50 calls means one connection carried them all.
  sync::Mutex mutex{"test.serving_threads"};
  std::set<std::thread::id> serving_threads;
  int served = 0;
  const FrameHandler echo = frame_upper_caser();
  TcpListener listener(0, [&](const wire::Buffer& frame) {
    {
      sync::LockGuard lock(mutex);
      serving_threads.insert(std::this_thread::get_id());
      ++served;
    }
    return echo(frame);
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(roundtrip(listener.port(), "ping").bytes(), bytes_of("PING"));
  }
  sync::LockGuard lock(mutex);
  EXPECT_EQ(served, 50);
  EXPECT_EQ(serving_threads.size(), 1u);
}

TEST(TcpTest, ConcurrentClients) {
  TcpListener listener(0, frame_upper_caser());
  const std::uint16_t port = listener.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([port, &failures] {
      try {
        for (int i = 0; i < 20; ++i) {
          if (roundtrip(port, "abc").bytes() != bytes_of("ABC")) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpTest, ConnectToDeadPortFails) {
  // Grab an ephemeral port, then close the listener so nothing listens.
  std::uint16_t dead_port;
  {
    TcpListener listener(0, frame_upper_caser());
    dead_port = listener.port();
  }
  try {
    roundtrip(dead_port, "x");
    FAIL() << "expected connect failure";
  } catch (const TransportError& e) {
    EXPECT_TRUE(e.code() == ErrorCode::transport_connect_failed ||
                e.code() == ErrorCode::transport_closed ||
                e.code() == ErrorCode::transport_io);
  }
}

TEST(TcpTest, BadAddressRejected) {
  EXPECT_THROW(resolve_ipv4("not-an-ip"), TransportError);
}

TEST(TcpTest, ListenerStopIsIdempotent) {
  TcpListener listener(0, frame_upper_caser());
  listener.stop();
  listener.stop();
}

TEST(TcpTest, ServerStopFailsTheNextCall) {
  auto listener = std::make_unique<TcpListener>(0, frame_upper_caser());
  const std::uint16_t port = listener->port();
  EXPECT_EQ(roundtrip(port, "a").bytes(), bytes_of("A"));
  listener.reset();  // server goes away
  // Either the reactor already saw the close (the re-dial is refused) or
  // the call rides the dead connection; both fail, and nothing resends.
  EXPECT_THROW(roundtrip(port, "b"), TransportError);
}

// ---- handler errors don't kill the server ------------------------------------------------

TEST(TcpTest, HandlerExceptionDropsConnectionOnly) {
  std::atomic<int> calls{0};
  const FrameHandler echo = frame_upper_caser();
  TcpListener listener(0, [&calls, &echo](const wire::Buffer& frame) {
    if (++calls == 1) throw std::runtime_error("boom");
    return echo(frame);
  });

  EXPECT_THROW(roundtrip(listener.port(), "x"), TransportError);
  // The reactor re-dials, and the fresh connection still works.
  EXPECT_EQ(roundtrip(listener.port(), "ok").bytes(), bytes_of("OK"));
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
}  // namespace ohpx::transport
