// Robustness sweeps: the server pipeline must survive arbitrary byte-level
// corruption — every mutated frame yields a well-formed reply frame (error
// or success), never a crash or an unframed blob.  Same discipline for the
// client decoding mutated replies: typed exceptions only, on the reactor's
// demux path too, where mutated reply streams arrive over a real socket.
// And for the HTTP listener's request-head parse: a well-formed response
// or a close, for any bytes a scraper's connection carries.  And for the
// capabilities that read a peer's trailer or size header: a result or a
// CapabilityDenied, nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/compression.hpp"
#include "ohpx/capability/builtin/delegation.hpp"
#include "ohpx/capability/builtin/padding.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/common/endian.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/http.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/serialize.hpp"
#include "raw_socket.hpp"

namespace ohpx {
namespace {

using scenario::EchoServant;

class RobustnessFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    const auto machine = world_.add_machine("box", lan);
    server_ctx_ = &world_.create_context(machine);
    const auto key = crypto::Key128::from_seed(0xfeed);
    ref_ = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
               .glue({std::make_shared<cap::CompressionCapability>(
                          compress::CodecId::lz),
                      std::make_shared<cap::EncryptionCapability>(key),
                      std::make_shared<cap::AuthenticationCapability>(
                          key, "fuzz", cap::Scope::always)})
               .build();
  }

  /// A valid request frame for the echo method, glue-processed.
  wire::Buffer valid_frame() {
    const auto data = proto::decode_glue_proto_data(ref_.table().at(0).proto_data);
    const auto chain =
        cap::CapabilityRegistry::instance().instantiate_chain(data.capabilities);

    wire::Buffer payload;
    {
      wire::Encoder enc(payload);
      wire::serialize(enc, std::vector<std::int32_t>{1, 2, 3, 4});
    }
    cap::CallContext call;
    call.request_id = 42;
    call.object_id = ref_.object_id();
    call.method_id = EchoServant::kEcho;
    cap::CapabilityChain mutable_chain = chain;
    mutable_chain.process_outbound(payload, call);
    proto::prepend_glue_id(payload, data.glue_id);

    wire::MessageHeader header;
    header.type = wire::MessageType::request;
    header.flags = wire::kFlagGlueProcessed;
    header.request_id = 42;
    header.object_id = ref_.object_id();
    header.method_or_code = EchoServant::kEcho;
    return wire::encode_frame(header, payload.view());
  }

  /// The reply must always parse as a frame of type reply/error_reply.
  static void expect_well_formed_reply(const wire::Buffer& reply) {
    BytesView body;
    const wire::MessageHeader header = wire::decode_frame(reply.view(), body);
    EXPECT_TRUE(header.type == wire::MessageType::reply ||
                header.type == wire::MessageType::error_reply);
    if (header.type == wire::MessageType::error_reply) {
      std::uint32_t code = 0;
      std::string message;
      wire::decode_error_body(body, code, message);
      EXPECT_NE(code, 0u);
    }
  }

  runtime::World world_;
  orb::Context* server_ctx_ = nullptr;
  orb::ObjectRef ref_;
};

TEST_F(RobustnessFixture, ValidFrameStillWorks) {
  const wire::Buffer reply = server_ctx_->handle_frame(valid_frame());
  BytesView body;
  EXPECT_EQ(wire::decode_frame(reply.view(), body).type,
            wire::MessageType::reply);
}

TEST_F(RobustnessFixture, SingleBitFlipsNeverCrash) {
  const wire::Buffer pristine = valid_frame();
  // Flip each bit of the header and a sample of payload bits.
  for (std::size_t byte = 0; byte < pristine.size();
       byte += (byte < wire::kHeaderSize ? 1 : 7)) {
    for (int bit = 0; bit < 8; ++bit) {
      wire::Buffer mutated = pristine;
      mutated.data()[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_well_formed_reply(server_ctx_->handle_frame(mutated));
    }
  }
}

TEST_F(RobustnessFixture, TruncationsNeverCrash) {
  const wire::Buffer pristine = valid_frame();
  for (std::size_t keep = 0; keep < pristine.size(); keep += 3) {
    wire::Buffer truncated(pristine.data(), keep);
    expect_well_formed_reply(server_ctx_->handle_frame(truncated));
  }
}

class RandomFrameFuzz : public RobustnessFixture,
                        public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(RandomFrameFuzz, RandomBlobsNeverCrash) {
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    wire::Buffer garbage;
    garbage.resize(rng.next_below(512));
    for (auto& byte : garbage.mutable_view()) {
      byte = static_cast<std::uint8_t>(rng.next());
    }
    expect_well_formed_reply(server_ctx_->handle_frame(garbage));
  }
}

TEST_P(RandomFrameFuzz, RandomMutationsOfValidFramesNeverCrash) {
  Xoshiro256 rng(GetParam());
  const wire::Buffer pristine = valid_frame();
  for (int i = 0; i < 200; ++i) {
    wire::Buffer mutated = pristine;
    const std::size_t mutations = 1 + rng.next_below(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutated.data()[rng.next_below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    expect_well_formed_reply(server_ctx_->handle_frame(mutated));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFrameFuzz,
                         ::testing::Values(0xa, 0xb, 0xc, 0xd));

// ---- mutated reply streams on the reactor's demux path -----------------------
//
// The test plays the server.  Each round it accepts the reactor's
// connection, reads 1-4 requests, encodes a valid reply frame for each
// with wire::encode_frame, mutates the stream (bit flips, truncation,
// length-prefix edits, two-frame splices), writes it and closes.  Every
// pending future must settle — with a value or a typed ohpx::Error — and a
// last, unmutated round must still be answered in full.

Bytes reply_stream(const std::vector<Bytes>& frames,
                   std::optional<std::size_t> edited = std::nullopt,
                   std::uint32_t edited_prefix = 0) {
  Bytes stream;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::size_t at = stream.size();
    const Bytes framed = testutil::framed(frames[i]);
    stream.insert(stream.end(), framed.begin(), framed.end());
    if (edited == i) {
      transport::store_frame_prefix(&stream[at], edited_prefix);
    }
  }
  return stream;
}

Bytes mutate_reply_stream(std::vector<Bytes> frames, Xoshiro256& rng) {
  switch (rng.next_below(4)) {
    case 0: {  // bit flips anywhere: prefixes, headers, correlation, body
      Bytes stream = reply_stream(frames);
      for (std::uint64_t flips = 1 + rng.next_below(8); flips > 0; --flips) {
        stream[rng.next_below(stream.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      return stream;
    }
    case 1: {  // truncation
      Bytes stream = reply_stream(frames);
      stream.resize(rng.next_below(stream.size()));
      return stream;
    }
    case 2: {  // one length prefix rewritten
      const std::size_t victim = rng.next_below(frames.size());
      const auto size = static_cast<std::uint32_t>(frames[victim].size());
      const auto cap =
          static_cast<std::uint32_t>(transport::FrameReader::kMaxFrameSize);
      const std::uint32_t choices[] = {
          0, 1, size - 1, size + 1, size + 64,
          static_cast<std::uint32_t>(rng.next_below(1u << 16)),
          cap, cap + 1, 0xffffffffu};
      return reply_stream(frames, victim,
                          choices[rng.next_below(std::size(choices))]);
    }
    default: {  // the head of one frame spliced onto the tail of another
      const std::size_t a = rng.next_below(frames.size());
      const std::size_t b = rng.next_below(frames.size());
      const Bytes& head = frames[a];
      const Bytes& tail = frames[b];
      Bytes spliced(head.begin(),
                    head.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(head.size() + 1)));
      spliced.insert(spliced.end(),
                     tail.begin() + static_cast<std::ptrdiff_t>(
                                        rng.next_below(tail.size() + 1)),
                     tail.end());
      frames[a] = std::move(spliced);
      return reply_stream(frames);
    }
  }
}

struct RoundOutcome {
  std::size_t values = 0;
  std::size_t errors = 0;
};

// One connection: `calls` requests, their replies mutated by `rng` (or
// left valid when it is null), then close.
RoundOutcome serve_round(std::size_t calls, Xoshiro256* rng) {
  RoundOutcome outcome;
  testutil::RawAcceptor acceptor;  // a fresh port: a fresh connection
  EXPECT_NE(acceptor.port(), 0);
  std::vector<Future<transport::RawReply>> futures;
  for (std::size_t i = 0; i < calls; ++i) {
    wire::MessageHeader header;
    header.type = wire::MessageType::request;
    header.request_id = i + 1;
    header.object_id = 99;
    header.method_or_code = EchoServant::kEcho;
    const Bytes body(1 + i * 5, static_cast<std::uint8_t>('a' + i));
    futures.push_back(transport::Reactor::global().submit(
        "127.0.0.1", acceptor.port(), header, body));
  }
  {
    testutil::RawSocket peer = acceptor.accept_one();
    EXPECT_TRUE(peer.valid());
    const std::vector<Bytes> frames = testutil::echo_replies(peer, calls);
    EXPECT_EQ(frames.size(), calls);
    if (!frames.empty()) {
      const Bytes stream =
          rng ? mutate_reply_stream(frames, *rng) : reply_stream(frames);
      (void)peer.send_all(stream);  // the reactor may hang up first
    }
  }  // closes: whatever the stream left pending fails at EOF
  for (auto& future : futures) {
    if (!future.wait_for(std::chrono::seconds(10))) {
      ADD_FAILURE() << "a pending call never settled";
      continue;
    }
    try {
      (void)future.get();
      ++outcome.values;
    } catch (const Error&) {
      ++outcome.errors;
    }
  }
  return outcome;
}

class ReplyStreamFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplyStreamFuzz, EveryPendingCallSettlesWithAValueOrATypedError) {
  Xoshiro256 rng(GetParam());
  RoundOutcome total;
  for (int round = 0; round < 24; ++round) {
    const RoundOutcome outcome = serve_round(1 + rng.next_below(4), &rng);
    total.values += outcome.values;
    total.errors += outcome.errors;
  }
  EXPECT_GT(total.errors, 0u) << "no mutation reached the demux path";

  const RoundOutcome clean = serve_round(3, nullptr);
  EXPECT_EQ(clean.values, 3u);
  EXPECT_EQ(clean.errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplyStreamFuzz,
                         ::testing::Values(0x11, 0x12, 0x13, 0x14, 0x15, 0x16,
                                           0x17, 0x18));

// ---- mutated request heads on the HTTP listener -----------------------------
//
// Each round mutates a valid head (bit flips, truncation, a CR or LF
// inserted or deleted, two heads spliced, padding past the 8 KiB cap),
// sends it on a fresh connection and half-closes.  The listener must
// answer with a status it serves and a Content-Length that matches the
// body, or close with no bytes; a clean GET after every round still gets
// 200.  A reset counts as a close: the listener may answer before it has
// read the whole request.

const std::string kValidHead =
    "GET /path HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";

transport::HttpResponse route(const std::string& path) {
  if (path == "/path") return {200, "text/plain", "ok\n"};
  if (path.empty() || path.front() != '/') {
    throw std::runtime_error("not an absolute path");
  }
  return {404, "text/plain", "no route\n"};
}

std::string mutate_head(Xoshiro256& rng) {
  std::string head = kValidHead;
  switch (rng.next_below(5)) {
    case 0:  // bit flips
      for (std::uint64_t flips = 1 + rng.next_below(8); flips > 0; --flips) {
        head[rng.next_below(head.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      return head;
    case 1:  // truncation
      head.resize(rng.next_below(head.size()));
      return head;
    case 2: {  // a CR or LF inserted, or one deleted
      if (rng.next_below(2) == 0) {
        head.insert(rng.next_below(head.size() + 1), 1,
                    rng.next_below(2) == 0 ? '\r' : '\n');
        return head;
      }
      std::vector<std::size_t> breaks;
      for (std::size_t i = 0; i < head.size(); ++i) {
        if (head[i] == '\r' || head[i] == '\n') breaks.push_back(i);
      }
      head.erase(breaks[rng.next_below(breaks.size())], 1);
      return head;
    }
    case 3:  // the start of one head spliced onto the end of another
      return head.substr(0, rng.next_below(head.size() + 1)) +
             kValidHead.substr(rng.next_below(kValidHead.size() + 1));
    default: {  // a header that pads the head past the cap
      const std::size_t line_end = head.find("\r\n") + 2;
      head.insert(line_end, "X-Pad: " +
                                std::string((8 << 10) + rng.next_below(4096),
                                            'p') +
                                "\r\n");
      return head;
    }
  }
}

// A response the listener may send: the status line of a status it
// serves, then a head whose Content-Length matches the body.
::testing::AssertionResult well_formed(const std::string& response) {
  static const std::set<std::string> kServed = {"200", "400", "404", "405",
                                                "500"};
  if (response.rfind("HTTP/1.1 ", 0) != 0 ||
      !kServed.contains(response.substr(9, 3))) {
    return ::testing::AssertionFailure() << "bad status line: " << response;
  }
  const std::size_t head_end = response.find("\r\n\r\n");
  const std::string length_field = "\r\nContent-Length: ";
  const std::size_t field = response.find(length_field);
  if (head_end == std::string::npos || field == std::string::npos ||
      field > head_end) {
    return ::testing::AssertionFailure() << "no Content-Length: " << response;
  }
  const std::size_t length =
      std::stoul(response.substr(field + length_field.size()));
  if (response.size() - (head_end + 4) != length) {
    return ::testing::AssertionFailure()
           << "body is not " << length << " bytes: " << response;
  }
  return ::testing::AssertionSuccess();
}

// Sends `head` on a fresh connection, half-closes, and returns what the
// listener sent before closing; nullopt when it never closed.
std::optional<std::string> send_head(std::uint16_t port,
                                     const std::string& head) {
  testutil::RawSocket client = testutil::RawSocket::connect_to(port);
  EXPECT_TRUE(client.valid());
  (void)client.send_all(bytes_of(head));  // the listener may answer first
  client.shutdown_write();
  return client.read_to_close();
}

class HttpHeadFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpHeadFuzz, EveryConnectionGetsAWellFormedResponseOrAClose) {
  transport::HttpListener listener(0, route);
  Xoshiro256 rng(GetParam());
  std::size_t answered = 0;
  for (int round = 0; round < 24; ++round) {
    const std::string head = mutate_head(rng);
    const std::optional<std::string> response =
        send_head(listener.port(), head);
    ASSERT_TRUE(response.has_value()) << "round " << round << " never closed";
    if (!response->empty()) {
      ++answered;
      EXPECT_TRUE(well_formed(*response)) << "round " << round;
    }
    const std::optional<std::string> clean =
        send_head(listener.port(), kValidHead);
    ASSERT_TRUE(clean.has_value());
    EXPECT_EQ(clean->rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << *clean;
  }
  EXPECT_GT(answered, 0u) << "no mutated head reached the parse";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpHeadFuzz,
                         ::testing::Values(0x21, 0x22, 0x23, 0x24, 0x25, 0x26,
                                           0x27, 0x28));

// ---- migration racing live traffic --------------------------------------------

// Clients hammer a counter while another thread migrates it between
// contexts.  Every call must either succeed or raise a typed ohpx error;
// the stale-reference retry in CallCore should make failures rare and the
// final count must equal the number of successful adds.
TEST(MigrationChaos, CallsSurviveConcurrentMigrations) {
  runtime::World world;
  const auto lan = world.add_lan("lan");
  std::vector<orb::Context*> homes;
  for (int i = 0; i < 3; ++i) {
    homes.push_back(
        &world.create_context(world.add_machine("m" + std::to_string(i), lan)));
  }
  orb::Context& client_ctx =
      world.create_context(world.add_machine("client", lan));

  auto servant = std::make_shared<scenario::CounterServant>();
  const orb::ObjectRef ref = orb::RefBuilder(*homes[0], servant).build();

  std::atomic<bool> stop{false};
  std::atomic<int> successes{0};
  std::atomic<int> typed_failures{0};
  std::atomic<int> untyped_failures{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      scenario::CounterPointer gp(client_ctx, ref);
      for (int i = 0; i < 150; ++i) {
        try {
          gp->add(1);
          ++successes;
        } catch (const Error&) {
          ++typed_failures;
        } catch (...) {
          ++untyped_failures;
        }
      }
    });
  }

  std::thread migrator([&] {
    int position = 0;
    while (!stop.load()) {
      orb::Context* from = world.find_context_of(ref.object_id());
      orb::Context* to = homes[static_cast<std::size_t>(++position % 3)];
      if (from != nullptr && from != to) {
        try {
          runtime::migrate_shared(ref.object_id(), *from, *to);
        } catch (const Error&) {
          // A racing migration may observe the object mid-move; benign.
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));  // ohpx-lint: allow-wall-clock (paces a real migration race)
    }
  });

  for (auto& client : clients) client.join();
  stop = true;
  migrator.join();

  EXPECT_EQ(untyped_failures.load(), 0);
  EXPECT_GT(successes.load(), 0);
  EXPECT_EQ(servant->value(), successes.load());
}

// ---- scenario servants (coverage of the reference implementations) ------------

TEST(ScenarioEcho, AllMethodsBehave) {
  runtime::World world;
  const auto lan = world.add_lan("lan");
  orb::Context& ctx = world.create_context(world.add_machine("m", lan));
  auto servant = std::make_shared<EchoServant>();
  auto ref = orb::RefBuilder(ctx, servant).build();
  scenario::EchoPointer gp(ctx, ref);

  EXPECT_EQ(gp->sum({1, 2, 3}), 6);
  EXPECT_EQ(gp->sum({}), 0);
  EXPECT_EQ(gp->reverse(""), "");
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(servant->pings(), 2u);

  // Snapshot/restore carries the ping count.
  auto clone = std::make_shared<EchoServant>();
  clone->restore(servant->snapshot());
  EXPECT_EQ(clone->pings(), 2u);
}

// ---- mutated capability trailers -------------------------------------------
//
// The capabilities whose unprocess() reads a peer's bytes: checksum,
// padding, delegation (bearer -> verifier) and compression (rle, lz77).
// Each round mutates a payload one of them produced: bit flips,
// truncation, the head of one valid output spliced onto the tail of
// another, or the length field (the 4-byte trailer, or compression's size
// header) overwritten with an edge value.  unprocess() returns or throws
// CapabilityDenied, nothing else, and a checksummed payload with one
// flipped bit is never accepted.

struct TrailerTarget {
  std::string_view name;
  cap::CapabilityPtr sender;    // runs process()
  cap::CapabilityPtr receiver;  // runs unprocess()
  bool size_header;             // the length sits after a codec id byte,
                                // not in the last 4 bytes
};

std::vector<TrailerTarget> trailer_targets() {
  const auto verifier =
      cap::DelegationCapability::make_root(crypto::Key128::from_seed(0x7a11));
  const auto checksum = std::make_shared<cap::ChecksumCapability>();
  const auto padding = std::make_shared<cap::PaddingCapability>(16);
  const auto rle =
      std::make_shared<cap::CompressionCapability>(compress::CodecId::rle);
  const auto lz =
      std::make_shared<cap::CompressionCapability>(compress::CodecId::lz);
  return {
      {"checksum", checksum, checksum, false},
      {"padding", padding, padding, false},
      {"delegation",
       cap::DelegationCapability::from_descriptor(verifier->descriptor()),
       verifier, false},
      {"rle", rle, rle, true},
      {"lz77", lz, lz, true},
  };
}

// A body with runs in it, so the codecs emit run and match tokens too.
wire::Buffer produce(const TrailerTarget& target, Xoshiro256& rng) {
  Bytes body;
  const std::size_t size = rng.next_below(300);
  while (body.size() < size) {
    const std::size_t run =
        rng.next_below(2) == 0 ? 1 : 3 + rng.next_below(40);
    body.insert(body.end(), std::min(run, size - body.size()),
                static_cast<std::uint8_t>(rng.next()));
  }
  wire::Buffer payload(std::move(body));
  target.sender->process(payload, cap::CallContext{});
  return payload;
}

// True when unprocess() accepted the payload; fails the test on anything
// but a return or a CapabilityDenied.
bool accepted(const TrailerTarget& target, wire::Buffer payload) {
  try {
    target.receiver->unprocess(payload, cap::CallContext{});
    return true;
  } catch (const CapabilityDenied&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unprocess threw a non-CapabilityDenied: " << e.what();
  } catch (...) {
    ADD_FAILURE() << "unprocess threw a non-std exception";
  }
  return false;
}

wire::Buffer mutate_trailer(const TrailerTarget& target,
                            const wire::Buffer& pristine,
                            const wire::Buffer& other, Xoshiro256& rng) {
  wire::Buffer mutated = pristine;
  switch (rng.next_below(4)) {
    case 0:  // bit flips anywhere
      for (std::uint64_t flips = 1 + rng.next_below(4); flips > 0; --flips) {
        mutated.data()[rng.next_below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      break;
    case 1:  // truncation
      mutated.resize(rng.next_below(mutated.size()));
      break;
    case 2: {  // the head of one valid output, the tail of another
      mutated.resize(rng.next_below(pristine.size() + 1));
      const std::size_t from = rng.next_below(other.size() + 1);
      mutated.append(other.view(from, other.size() - from));
      break;
    }
    default: {  // the length field set to an edge value
      const std::uint32_t edges[] = {
          0, static_cast<std::uint32_t>(mutated.size() - 4), 0x7fffffffu,
          0xfffffffcu, 0xffffffffu};
      const std::size_t at = target.size_header ? 1 : mutated.size() - 4;
      store_be(mutated.data() + at, edges[rng.next_below(std::size(edges))]);
      break;
    }
  }
  return mutated;
}

class CapabilityTrailerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CapabilityTrailerFuzz, UnprocessReturnsOrRefuses) {
  Xoshiro256 rng(GetParam());
  for (const TrailerTarget& target : trailer_targets()) {
    SCOPED_TRACE(std::string(target.name));
    std::size_t refused = 0;
    for (int round = 0; round < 64; ++round) {
      const wire::Buffer pristine = produce(target, rng);
      ASSERT_TRUE(accepted(target, pristine)) << "round " << round;
      const wire::Buffer other = produce(target, rng);
      if (!accepted(target, mutate_trailer(target, pristine, other, rng))) {
        ++refused;
      }
      if (target.name == "checksum") {
        wire::Buffer flipped = pristine;
        flipped.data()[rng.next_below(flipped.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        EXPECT_FALSE(accepted(target, std::move(flipped)))
            << "round " << round << ": one flipped bit passed the checksum";
      }
    }
    EXPECT_GT(refused, 0u) << "no mutation reached the parse";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapabilityTrailerFuzz,
                         ::testing::Values(0x31, 0x32, 0x33, 0x34, 0x35, 0x36,
                                           0x37, 0x38));

}  // namespace
}  // namespace ohpx
