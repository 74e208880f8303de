// Unit tests for the transport layer: endpoint registry, in-process
// channel, simulated-network channel cost accounting, and the real TCP
// listener driven by the reactor (loopback sockets), and the framing both
// ends share: FrameReader unit cases over a socketpair, then the
// listener's edge cases from a raw client socket.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <set>
#include <thread>

#include "ohpx/common/error.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/sim.hpp"
#include "ohpx/transport/tcp.hpp"
#include "raw_socket.hpp"

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

// ---- FrameReader over a socketpair -------------------------------------------------------
//
// One thread writes exactly the bytes the case needs before each fill(),
// so every partial-prefix, compaction and growth path runs
// deterministically.

class SocketPair {
 public:
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_ = testutil::RawSocket(fds[0]);
    read_end_ = testutil::RawSocket(fds[1]);
  }
  testutil::RawSocket& writer() { return writer_; }
  int reader_fd() const { return read_end_.fd(); }

 private:
  testutil::RawSocket writer_;
  testutil::RawSocket read_end_;
};

Bytes patterned(std::size_t size, std::uint8_t seed) {
  Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return bytes;
}

TEST(FrameReaderTest, PrefixAndBodySplitAcrossFills) {
  SocketPair pair;
  FrameReader reader;
  const Bytes stream = testutil::framed(bytes_of("split"));
  // Half the prefix, then the rest of it with two body bytes, then the rest.
  std::size_t done = 0;
  for (const std::size_t upto : {std::size_t{2}, std::size_t{6}}) {
    ASSERT_TRUE(pair.writer().send_all(
        BytesView(stream).subspan(done, upto - done)));
    ASSERT_EQ(reader.fill(pair.reader_fd()),
              static_cast<ssize_t>(upto - done));
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), upto);
    done = upto;
  }
  ASSERT_TRUE(pair.writer().send_all(BytesView(stream).subspan(done)));
  ASSERT_GT(reader.fill(pair.reader_fd()), 0);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(Bytes(frame->begin(), frame->end()), bytes_of("split"));
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameReaderTest, EmptyFrameIsAFrame) {
  SocketPair pair;
  FrameReader reader;
  ASSERT_TRUE(pair.writer().send_all(testutil::framed({})));
  ASSERT_EQ(reader.fill(pair.reader_fd()), 4);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(FrameReaderTest, CompactsThePartialFrameAtTheBufferEnd) {
  // 997-byte frames (1,001 on the wire) never tile the 256 KiB buffer, so
  // the frame straddling its end must move to the front to complete.
  SocketPair pair;
  FrameReader reader;
  constexpr std::size_t kFrames = 400;
  constexpr std::size_t kPayload = 997;
  Bytes stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const Bytes frame =
        testutil::framed(patterned(kPayload, static_cast<std::uint8_t>(i)));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::size_t sent = 0;
  std::size_t received = 0;
  while (received < kFrames) {
    // Write a 64 KiB slice (within the socketpair's buffer), then drain it.
    const std::size_t slice = std::min<std::size_t>(64u << 10,
                                                    stream.size() - sent);
    ASSERT_TRUE(pair.writer().send_all(BytesView(stream).subspan(sent, slice)));
    sent += slice;
    std::size_t pending = slice;
    while (pending > 0) {
      const ssize_t n = reader.fill(pair.reader_fd());
      ASSERT_GT(n, 0);
      pending -= static_cast<std::size_t>(n);
      while (const auto frame = reader.next()) {
        ASSERT_EQ(frame->size(), kPayload);
        const Bytes expected =
            patterned(kPayload, static_cast<std::uint8_t>(received));
        ASSERT_EQ(std::memcmp(frame->data(), expected.data(), kPayload), 0)
            << "frame " << received;
        ++received;
      }
    }
  }
  EXPECT_EQ(sent, stream.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, GrowsForAFrameLargerThanTheBuffer) {
  SocketPair pair;
  FrameReader reader;
  const Bytes big = patterned(3 * FrameReader::kReadChunk + 123, 0x5a);
  const Bytes stream = testutil::framed(big);
  std::thread writer([&pair, &stream] {
    EXPECT_TRUE(pair.writer().send_all(stream));
  });
  std::optional<BytesView> frame;
  while (!(frame = reader.next())) {
    ASSERT_GT(reader.fill(pair.reader_fd()), 0);
  }
  writer.join();
  ASSERT_EQ(frame->size(), big.size());
  EXPECT_EQ(std::memcmp(frame->data(), big.data(), big.size()), 0);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, PrefixAboveTheCapThrowsAndTheCapItselfDoesNot) {
  SocketPair pair;
  std::uint8_t prefix[kFramePrefixSize];

  FrameReader at_cap;
  store_frame_prefix(prefix, FrameReader::kMaxFrameSize);
  ASSERT_TRUE(pair.writer().send_all(BytesView(prefix, sizeof(prefix))));
  ASSERT_EQ(at_cap.fill(pair.reader_fd()), 4);
  EXPECT_FALSE(at_cap.next().has_value());  // legal, just not here yet

  FrameReader over_cap;
  store_frame_prefix(prefix, FrameReader::kMaxFrameSize + 1);
  ASSERT_TRUE(pair.writer().send_all(BytesView(prefix, sizeof(prefix))));
  ASSERT_EQ(over_cap.fill(pair.reader_fd()), 4);
  try {
    (void)over_cap.next();
    FAIL() << "expected the cap to reject the prefix";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_io);
  }
}

// ---- listener framing edge cases from a raw client socket --------------------------------
//
// The handler upper-cases raw bytes, so these requests need no wire header.

std::optional<Bytes> ask(testutil::RawSocket& client, std::string_view text) {
  if (!client.send_all(testutil::framed(bytes_of(text)))) return std::nullopt;
  return client.read_frame();
}

TEST(TcpFramingTest, LengthPrefixSplitAcrossTwoWrites) {
  TcpListener listener(0, upper_caser());
  testutil::RawSocket client = testutil::RawSocket::connect_to(listener.port());
  ASSERT_TRUE(client.valid());
  const Bytes stream = testutil::framed(bytes_of("split prefix"));
  ASSERT_TRUE(client.send_all(BytesView(stream).first(2)));
  ASSERT_TRUE(client.send_all(BytesView(stream).subspan(2)));
  EXPECT_EQ(client.read_frame(), bytes_of("SPLIT PREFIX"));
}

TEST(TcpFramingTest, RequestSentOneBytePerSend) {
  TcpListener listener(0, upper_caser());
  testutil::RawSocket client = testutil::RawSocket::connect_to(listener.port());
  ASSERT_TRUE(client.valid());
  for (const std::string_view text : {"one byte at a time", "again"}) {
    ASSERT_TRUE(client.send_bytewise(testutil::framed(bytes_of(text))));
    std::string upper(text);
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(client.read_frame(), bytes_of(upper));
  }
}

TEST(TcpFramingTest, SixtyFourFramesInOneWriteAnsweredInOrder) {
  TcpListener listener(0, upper_caser());
  testutil::RawSocket client = testutil::RawSocket::connect_to(listener.port());
  ASSERT_TRUE(client.valid());
  Bytes burst;
  for (int i = 0; i < 64; ++i) {
    const Bytes frame =
        testutil::framed(bytes_of("frame-" + std::to_string(i) + "-x"));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.send_all(burst));
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(client.read_frame(),
              bytes_of("FRAME-" + std::to_string(i) + "-X"))
        << "reply " << i;
  }
}

TEST(TcpFramingTest, OverCapPrefixDropsOnlyThatConnection) {
  TcpListener listener(0, upper_caser());
  testutil::RawSocket bad = testutil::RawSocket::connect_to(listener.port());
  testutil::RawSocket good = testutil::RawSocket::connect_to(listener.port());
  ASSERT_TRUE(bad.valid());
  ASSERT_TRUE(good.valid());
  EXPECT_EQ(ask(good, "before"), bytes_of("BEFORE"));

  std::uint8_t prefix[kFramePrefixSize];
  store_frame_prefix(prefix, FrameReader::kMaxFrameSize + 1);
  ASSERT_TRUE(bad.send_all(BytesView(prefix, sizeof(prefix))));
  EXPECT_TRUE(bad.closed_by_peer());

  EXPECT_EQ(ask(good, "after"), bytes_of("AFTER"));
}

TEST(TcpFramingTest, EofMidFrameDropsTheConnectionUnanswered) {
  std::atomic<int> calls{0};
  const FrameHandler upper = upper_caser();
  TcpListener listener(0, [&](const wire::Buffer& request) {
    ++calls;
    return upper(request);
  });
  const Bytes stream = testutil::framed(bytes_of("cut short"));
  // Inside the prefix, then inside the body.
  for (const std::size_t keep : {std::size_t{2}, stream.size() - 3}) {
    testutil::RawSocket client =
        testutil::RawSocket::connect_to(listener.port());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(client.send_all(BytesView(stream).first(keep)));
    client.shutdown_write();
    EXPECT_TRUE(client.closed_by_peer()) << "kept " << keep << " bytes";
  }
  EXPECT_EQ(calls.load(), 0);

  testutil::RawSocket next = testutil::RawSocket::connect_to(listener.port());
  ASSERT_TRUE(next.valid());
  EXPECT_EQ(ask(next, "ok"), bytes_of("OK"));
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace ohpx::transport
