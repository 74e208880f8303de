// Unit tests for the transport layer: endpoint registry, the in-process
// dispatch and its modeled-link cost accounting, and the real TCP
// listener driven by the reactor (loopback sockets), and the framing both
// ends share: FrameReader unit cases over a socketpair, then the
// listener's edge cases from a raw client socket.  Last, the accepting
// side both listeners share (connect bursts, reaping, stop) and every
// branch of the HTTP listener's request-head parse.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "ohpx/common/error.hpp"
#include "ohpx/netsim/topology.hpp"
#include "ohpx/resilience/fault_plan.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/http.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/tcp.hpp"
#include "raw_socket.hpp"

namespace ohpx::transport {
namespace {

wire::Buffer make_payload(std::string_view text) {
  return wire::Buffer(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size());
}

// A request handler that answers with the request's body upper-cased, or
// with `reply_body` when one is given.
RequestHandler upper_casing_server(std::optional<std::string> reply_body =
                                       std::nullopt) {
  return [reply_body](const wire::MessageHeader& header, BytesView body) {
    wire::ReplyEnvelope reply;
    reply.header.type = wire::MessageType::reply;
    reply.header.request_id = header.request_id;
    reply.payload = reply_body ? make_payload(*reply_body)
                               : wire::Buffer(body.data(), body.size());
    for (auto& b : reply.payload.mutable_view()) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    return reply;
  };
}

// A request handler whose reply carries `text` as its body.
RequestHandler answers(std::string text) {
  return [text](const wire::MessageHeader&, BytesView) {
    wire::ReplyEnvelope reply;
    reply.payload = make_payload(text);
    return reply;
  };
}

// ---- endpoint registry ----------------------------------------------------------

TEST(EndpointRegistryTest, BindLookupUnbind) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-1";
  registry.bind(name, upper_casing_server());
  const EndpointHandle handler = registry.find(name);
  ASSERT_NE(handler, nullptr);
  const wire::Buffer body = make_payload("hi");
  EXPECT_EQ((*handler)({}, body.view()).payload.bytes(), bytes_of("HI"));
  registry.unbind(name);
  EXPECT_EQ(registry.find(name), nullptr);
}

TEST(EndpointRegistryTest, LookupMissingThrows) {
  // Finding an unbound name yields no handler, and dispatching to none
  // fails as an unknown endpoint.
  const EndpointHandle missing =
      EndpointRegistry::instance().find("test/no-such");
  EXPECT_EQ(missing, nullptr);
  CostLedger ledger;
  try {
    transport::dispatch(missing, "test/no-such", {}, {}, ledger);
    FAIL();
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_unknown_endpoint);
  }
  EXPECT_EQ(ledger.bytes_sent(), 0u) << "nothing was sent";
}

TEST(EndpointRegistryTest, RebindReplacesHandler) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-rebind";
  registry.bind(name, answers("old"));
  const EndpointHandle old_handler = registry.find(name);
  registry.bind(name, answers("new"));
  EXPECT_EQ((*registry.find(name))({}, {}).payload.bytes(), bytes_of("new"));
  // A handle found before the rebind still calls the handler it found.
  EXPECT_EQ((*old_handler)({}, {}).payload.bytes(), bytes_of("old"));
  registry.unbind(name);
}

TEST(EndpointRegistryTest, GenerationMovesOnEveryBindingChange) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-generation";
  const std::uint64_t start = registry.generation();
  registry.bind(name, answers("a"));
  EXPECT_EQ(registry.generation(), start + 1) << "a bind";
  registry.bind(name, answers("b"));
  EXPECT_EQ(registry.generation(), start + 2) << "a rebind";
  registry.unbind(name);
  EXPECT_EQ(registry.generation(), start + 3) << "an unbind that removes";
  registry.unbind(name);
  EXPECT_EQ(registry.generation(), start + 3)
      << "an unbind of an unbound name changes nothing";
}

// ---- in-process dispatch ----------------------------------------------------------

TEST(InProcChannelTest, RoundTripAndLedger) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/inproc", upper_casing_server());

  wire::MessageHeader header;
  header.request_id = 3;
  CostLedger ledger;
  const wire::ReplyEnvelope reply =
      transport::dispatch(registry.find("test/inproc"), "test/inproc", header,
                          make_payload("abc").view(), ledger);
  EXPECT_EQ(reply.payload.bytes(), bytes_of("ABC"));
  EXPECT_EQ(reply.header.request_id, 3u);
  // The bytes the two frames would have carried: no frame is built.
  EXPECT_EQ(ledger.bytes_sent(), wire::frame_size(header, 3));
  EXPECT_EQ(ledger.bytes_received(), wire::frame_size(reply.header, 3));
  EXPECT_EQ(reply.frame_size, ledger.bytes_received());
  EXPECT_EQ(ledger.modeled().count(), 0);

  registry.unbind("test/inproc");
}

// ---- over a modeled link -------------------------------------------------------------

TEST(SimChannelTest, ChargesModeledTimeBothWays) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/sim", upper_casing_server());

  const netsim::LinkSpec link{"lab", 8e6, Nanoseconds(1000)};  // 1 MB/s, 1 us
  const wire::Buffer body = make_payload(std::string(1000, 'a'));
  wire::MessageHeader header;
  header.request_id = 7;
  CostLedger ledger;
  const wire::ReplyEnvelope reply = transport::dispatch(
      registry.find("test/sim"), "test/sim", header, body.view(), ledger,
      &link);
  EXPECT_EQ(reply.payload.bytes(), bytes_of(std::string(1000, 'A')));
  // Each direction: 1000 ns latency + the frame the call would have
  // carried (1,000 bytes of body behind a 32-byte header) at 1 MBps.
  const std::size_t request_frame =
      wire::encode_frame(header, body.view()).size();
  const std::size_t reply_frame =
      wire::encode_frame(reply.header, reply.payload.view()).size();
  EXPECT_EQ(request_frame, wire::frame_size(header, body.size()));
  EXPECT_EQ(reply.frame_size, reply_frame);
  const Nanoseconds expected =
      link.transfer_time(request_frame) + link.transfer_time(reply_frame);
  EXPECT_EQ(ledger.modeled(), expected);
  const double modeled_ms =
      static_cast<double>(ledger.modeled().count()) / 1e6;
  EXPECT_NEAR(modeled_ms, static_cast<double>(expected.count()) / 1e6, 0.01);
  EXPECT_EQ(ledger.bytes_sent(), request_frame);
  EXPECT_EQ(ledger.bytes_received(), reply_frame);

  registry.unbind("test/sim");
}

TEST(SimChannelTest, CorruptFlipsTheLastBodyByteOrFailsABareReply) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/sim-body", upper_casing_server("ok"));
  registry.bind("test/sim-bare", upper_casing_server(""));
  const netsim::LinkSpec link{"lab", 8e6, Nanoseconds(1000)};
  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::corrupt}};
  plan.add("test/sim-body", schedule);
  plan.add("test/sim-bare", schedule);

  // The byte a reply frame ends with: the body's last byte...
  const EndpointHandle bare = registry.find("test/sim-bare");
  CostLedger ledger;
  const wire::ReplyEnvelope reply = transport::dispatch(
      registry.find("test/sim-body"), "test/sim-body", {}, {}, ledger, &link);
  EXPECT_EQ(reply.payload.bytes(), (Bytes{'O', 'K' ^ 0xff}));
  // ...or, with no body, the header's CRC: the call fails as the frame
  // would have failed to decode.
  try {
    transport::dispatch(bare, "test/sim-bare", {}, {}, ledger, &link);
    FAIL() << "a corrupted bare reply must not be delivered";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), ErrorCode::wire_bad_checksum);
  }
  // The fault was scripted for the first call only.
  EXPECT_TRUE(
      transport::dispatch(bare, "test/sim-bare", {}, {}, ledger, &link)
          .payload.empty());

  registry.unbind("test/sim-body");
  registry.unbind("test/sim-bare");
}

// ---- real TCP ---------------------------------------------------------------------------
//
// The listener serves wire frames; the client side is the reactor, the one
// TCP client path.  Replies echo the request header (and therefore its
// correlation id) with the body upper-cased, so a passing exchange proves
// the server, not a loopback of the request, produced the reply.

FrameHandler frame_upper_caser() {
  return [](BytesView frame) {
    BytesView body;
    wire::MessageHeader header = wire::decode_frame(frame, body);
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
  TcpListener listener(0, [&](BytesView frame) {
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
  TcpListener listener(0, [&calls, &echo](BytesView frame) {
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

FrameHandler upper_caser() {
  return [](BytesView request) {
    wire::Buffer reply(request.data(), request.size());
    for (auto& b : reply.mutable_view()) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    return reply;
  };
}

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
  TcpListener listener(0, [&](BytesView request) {
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

// ---- the accepting side both listeners share --------------------------------

TEST(TcpTest, ConnectBurstNeverWaitsForASynRetransmit) {
  // 200 connects back to back, each closed at once.  The accept thread
  // starts a thread per accept and falls behind the burst; a backlog too
  // short to queue it makes the kernel drop a SYN, and the client only
  // retransmits it after 1 s.
  TcpListener listener(0, upper_caser());
  for (int i = 0; i < 200; ++i) {
    const auto start = std::chrono::steady_clock::now();
    testutil::RawSocket client =
        testutil::RawSocket::connect_to(listener.port());
    const auto took = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(client.valid()) << "connect " << i;
    EXPECT_LT(took, std::chrono::milliseconds(500)) << "connect " << i;
  }
}

// Live threads of this process.
std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// Polls `done` until it holds or 10 s pass.
template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

HttpHandler routes() {
  return [](const std::string& path) -> HttpResponse {
    if (path == "/throw") throw std::runtime_error("boom");
    if (path == "/ok") return {200, "text/plain", "ok\n"};
    return {404, "text/plain", "no route\n"};
  };
}

// The exact bytes the HTTP listener sends for a text/plain `body`.
std::string http_response(std::string_view status, std::string_view body) {
  return "HTTP/1.1 " + std::string(status) +
         "\r\nContent-Type: text/plain\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
         std::string(body);
}

// Sends `request` on `client`, half-closes, and returns every byte the
// server sends before it closes: "" for a close with no bytes.
std::string http_exchange(testutil::RawSocket& client,
                          std::string_view request) {
  EXPECT_TRUE(client.send_all(bytes_of(request)));
  client.shutdown_write();
  return client.read_to_close().value_or("<receive timed out>");
}

std::string http_exchange(std::uint16_t port, std::string_view request) {
  testutil::RawSocket client = testutil::RawSocket::connect_to(port);
  EXPECT_TRUE(client.valid());
  return http_exchange(client, request);
}

// Both listeners, each behind one fresh-connection exchange.  Their
// handlers note the stack of the connection thread they run on.
enum class ListenerKind { tcp, http };

class ListenerTest : public ::testing::TestWithParam<ListenerKind> {
 protected:
  void SetUp() override {
    if (GetParam() == ListenerKind::tcp) {
      tcp_ = std::make_unique<TcpListener>(
          0, [this, upper = upper_caser()](BytesView request) {
            note_stack();
            return upper(request);
          });
    } else {
      http_ = std::make_unique<HttpListener>(
          0, [this, route = routes()](const std::string& path) {
            note_stack();
            return route(path);
          });
    }
  }

  std::uint16_t port() const { return tcp_ ? tcp_->port() : http_->port(); }
  void stop() { tcp_ ? tcp_->stop() : http_->stop(); }

  // Connect, one request and its reply, close.
  bool exchange() const {
    testutil::RawSocket client = testutil::RawSocket::connect_to(port());
    if (!client.valid()) return false;
    if (tcp_) return ask(client, "ping") == bytes_of("PING");
    return http_exchange(client, "GET /ok HTTP/1.1\r\n\r\n") ==
           http_response("200 OK", "ok\n");
  }

  // Distinct thread stacks the handlers have run on, by MiB.
  std::size_t stacks_seen() {
    sync::LockGuard lock(mutex_);
    return stacks_.size();
  }

 private:
  void note_stack() {
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    sync::LockGuard lock(mutex_);
    stacks_.insert(frame >> 20);
  }

  sync::Mutex mutex_{"test.listener_stacks"};
  std::set<std::uintptr_t> stacks_ OHPX_GUARDED_BY(mutex_);
  std::unique_ptr<TcpListener> tcp_;  // after what the handlers touch
  std::unique_ptr<HttpListener> http_;
};

TEST_P(ListenerTest, ConnectionThreadsEndAndAreJoined) {
  // Each exchange ends before the next connect, so only threads on their
  // way out overlap.  A thread that outlived its connection would keep the
  // thread count from settling back.  A thread that exited but was never
  // joined keeps its stack, so each connection would need a fresh one;
  // joined stacks go back to the C library's cache and are handed out
  // again.
  const std::size_t threads_before = thread_count();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(exchange()) << "cycle " << i;
  }
  EXPECT_TRUE(eventually([&] { return thread_count() <= threads_before; }))
      << thread_count() << " threads, " << threads_before << " before";
  EXPECT_LT(stacks_seen(), 50u);
}

TEST_P(ListenerTest, StopShutsAnIdleConnectionAndReturns) {
  const std::size_t threads_before = thread_count();
  testutil::RawSocket idle = testutil::RawSocket::connect_to(port());
  ASSERT_TRUE(idle.valid());
  // Wait for the connection's own thread, parked in recv, so stop() has
  // an open connection to shut down rather than one still in the backlog.
  ASSERT_TRUE(eventually([&] { return thread_count() > threads_before; }));
  stop();
  EXPECT_EQ(idle.read_to_close(), std::string());
}

INSTANTIATE_TEST_SUITE_P(
    Listeners, ListenerTest,
    ::testing::Values(ListenerKind::tcp, ListenerKind::http),
    [](const ::testing::TestParamInfo<ListenerKind>& info) {
      return info.param == ListenerKind::tcp ? "tcp" : "http";
    });

// ---- the HTTP listener's request-head parse ---------------------------------
//
// Every response is pinned byte for byte.

TEST(HttpListenerTest, ServesTheRouteWithTheQueryStripped) {
  HttpListener listener(0, routes());
  EXPECT_EQ(http_exchange(listener.port(),
                          "GET /ok?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n"),
            http_response("200 OK", "ok\n"));
  EXPECT_EQ(http_exchange(listener.port(), "GET /elsewhere HTTP/1.0\r\n\r\n"),
            http_response("404 Not Found", "no route\n"));
}

TEST(HttpListenerTest, MalformedRequestLineGets400) {
  HttpListener listener(0, routes());
  EXPECT_EQ(http_exchange(listener.port(), "GET/ok\r\n\r\n"),
            http_response("400 Bad Request", "malformed request line\n"));
}

TEST(HttpListenerTest, NonGetMethodGets405) {
  HttpListener listener(0, routes());
  EXPECT_EQ(
      http_exchange(listener.port(), "POST /ok HTTP/1.1\r\n\r\n"),
      http_response("405 Method Not Allowed", "only GET is served here\n"));
}

TEST(HttpListenerTest, HeadPastTheCapWithNoTerminatorGets400) {
  // One byte past 8 KiB, all of it read before the answer, so the close
  // after it is a clean one.
  HttpListener listener(0, routes());
  EXPECT_EQ(http_exchange(listener.port(), std::string((8 << 10) + 1, 'a')),
            http_response("400 Bad Request", "request head too large\n"));
}

TEST(HttpListenerTest, ThrowingHandlerGets500) {
  HttpListener listener(0, routes());
  EXPECT_EQ(
      http_exchange(listener.port(), "GET /throw HTTP/1.1\r\n\r\n"),
      http_response("500 Internal Server Error", "handler error: boom\n"));
}

TEST(HttpListenerTest, EofBeforeAFullHeadClosesWithNoBytes) {
  HttpListener listener(0, routes());
  EXPECT_EQ(http_exchange(listener.port(), "GET /ok HTTP/1.1\r\nHost: loc"),
            std::string());
  EXPECT_EQ(http_exchange(listener.port(), ""), std::string());
}

}  // namespace
}  // namespace ohpx::transport
