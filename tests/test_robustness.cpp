// Robustness sweeps: the server pipeline must survive arbitrary byte-level
// corruption — every mutated frame yields a well-formed reply frame (error
// or success), never a crash or an unframed blob.  Same discipline for the
// client decoding mutated replies: typed exceptions only, on the reactor's
// demux path too, where mutated reply streams arrive over a real socket.
// And for the HTTP listener's request-head parse: a well-formed response
// or a close, for any bytes a scraper's connection carries.  And for the
// capabilities that read a peer's trailer or size header: a result or a
// CapabilityDenied, nothing else.  And for the directory's one record,
// read back from a damaged journal or from a peer's catch-up stream: a
// prefix of what was written, or a typed refusal, and never an entry
// version that goes backwards.  And for the bootstrap URIs and reference
// files a client boots from: a typed refusal, or exactly what they say.
// And for the capability descriptors a reference carries and the topology
// texts a deployment hands over: a typed refusal, or a chain that opens
// what it seals and links with finite, positive bandwidths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "ohpx/capability/builtin/audit.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/compression.hpp"
#include "ohpx/capability/builtin/delegation.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/fault.hpp"
#include "ohpx/capability/builtin/lease.hpp"
#include "ohpx/capability/builtin/padding.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/capability/builtin/ratelimit.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/common/endian.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/naming/bootstrap.hpp"
#include "ohpx/naming/journal.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/netsim/parser.hpp"
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
  const wire::Buffer reply = server_ctx_->handle_frame(valid_frame().view());
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
      expect_well_formed_reply(server_ctx_->handle_frame(mutated.view()));
    }
  }
}

TEST_F(RobustnessFixture, TruncationsNeverCrash) {
  const wire::Buffer pristine = valid_frame();
  for (std::size_t keep = 0; keep < pristine.size(); keep += 3) {
    wire::Buffer truncated(pristine.data(), keep);
    expect_well_formed_reply(server_ctx_->handle_frame(truncated.view()));
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
    expect_well_formed_reply(server_ctx_->handle_frame(garbage.view()));
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
    expect_well_formed_reply(server_ctx_->handle_frame(mutated.view()));
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

// ---- mutated directory journals and catch-up snapshots ---------------------
//
// Journal recovery and apply_update read one record, the NameSnapshot
// (naming/journal.hpp): from a file a crash or a disk may have damaged, and
// from a peer.  The corpus is journals the directory itself writes during a
// seeded mutation mix.  Each round damages one journal — bit flips
// (anywhere, or in the magic), truncation, the head of one journal spliced
// onto the tail of another, or one frame's length field set to an edge
// value — and recover() returns a prefix of the clean file's records (for
// a splice: only records of the two sources), or refuses a damaged magic
// with ObjectError(bad_object_ref).
// The recovered records, and every clean record's payload mutated and
// decoded straight as a peer's catch-up bytes, go through apply_update():
// no entry version goes down, and nothing but a typed ohpx::Error escapes.

using naming::NameSnapshot;

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string encoded(const NameSnapshot& record) {
  const wire::Buffer bytes = wire::encode_value(record);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

/// The bytes of a journal a directory writes under a seeded mutation mix.
std::string written_journal(Xoshiro256& rng, const std::string& path) {
  std::remove(path.c_str());
  {
    naming::NameServiceServant directory;
    directory.attach_journal(std::make_shared<naming::Journal>(path));
    std::vector<std::pair<std::string, std::uint64_t>> registrations;
    for (int op = 0; op < 40; ++op) {
      const std::string name = "svc/" + std::to_string(rng.next_below(4));
      const orb::ObjectRef ref = naming::make_bootstrap_ref(
          "10.0.0." + std::to_string(1 + rng.next_below(4)),
          static_cast<std::uint16_t>(7000 + rng.next_below(4)));
      switch (rng.next_below(5)) {
        case 0:
          directory.bind(name, ref, /*rebind=*/true);
          break;
        case 1:
          registrations.emplace_back(
              name, directory.bind_replica(
                        name, ref,
                        std::chrono::milliseconds(rng.next_below(2) * 60'000)));
          break;
        case 2:
          directory.unbind(name);
          break;
        case 3:
          if (!registrations.empty()) {
            const auto& [victim, id] =
                registrations[rng.next_below(registrations.size())];
            directory.unbind_replica(victim, id);
          }
          break;
        default:
          directory.report_dead(name, ref);
          break;
      }
    }
  }
  return read_all(path);
}

/// Byte offsets of the clean journal's frames (after the 8-byte magic).
std::vector<std::size_t> frame_offsets(const std::string& raw) {
  std::vector<std::size_t> offsets;
  for (std::size_t pos = 8; pos + 8 <= raw.size();) {
    offsets.push_back(pos);
    pos += 8 + load_le<std::uint32_t>(
                   reinterpret_cast<const std::uint8_t*>(raw.data()) + pos);
  }
  return offsets;
}

template <typename Container>
void flip_bits(Container& bytes, Xoshiro256& rng) {
  for (std::uint64_t flips = 1 + rng.next_below(6); flips > 0; --flips) {
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<char>(1u << rng.next_below(8));
  }
}

/// One seeded byte-level damage to a non-empty `bytes`: bit flips, a
/// truncation (possibly to nothing), or a head of it spliced onto a tail
/// of `other`.
template <typename Container>
void damage(Container& bytes, const Container& other, Xoshiro256& rng) {
  switch (rng.next_below(3)) {
    case 0:
      flip_bits(bytes, rng);
      break;
    case 1:
      bytes.resize(rng.next_below(bytes.size()));
      break;
    default:
      bytes.resize(rng.next_below(bytes.size() + 1));
      bytes.insert(bytes.end(),
                   other.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(other.size() + 1)),
                   other.end());
      break;
  }
}

/// apply_update() under the fuzz invariants: only typed errors, and
/// `record.name`'s version never goes down, across the apply and a
/// resolve_all() of the name.
void apply_checked(naming::NameServiceServant& directory,
                   const NameSnapshot& record) {
  const std::uint64_t before = directory.version_of(record.name);
  try {
    directory.apply_update(record);
    directory.resolve_all(record.name);
  } catch (const Error&) {
    // a peer's garbage reference, refused typed
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error escaped apply/resolve: " << e.what();
  }
  EXPECT_GE(directory.version_of(record.name), before)
      << "entry version of '" << record.name << "' went backwards";
}

class JournalRecoveryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournalRecoveryFuzz, RecoverReturnsAPrefixAndReplayNeverRollsBack) {
  Xoshiro256 rng(GetParam());
  const std::string path =
      testing::TempDir() + "ohpx_fuzz_journal_" + std::to_string(::getpid());
  const std::string clean = written_journal(rng, path);
  const std::string other = written_journal(rng, path);
  std::vector<std::string> clean_records;
  std::vector<std::string> either_records;
  for (const std::string* source : {&clean, &other}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << *source;
    for (const NameSnapshot& record : naming::Journal::recover(path)) {
      either_records.push_back(encoded(record));
      if (source == &clean) clean_records.push_back(either_records.back());
    }
  }
  const std::vector<std::size_t> frames = frame_offsets(clean);
  ASSERT_EQ(frames.size(), clean_records.size());
  ASSERT_GT(frames.size(), 4u);

  std::size_t refused = 0;
  std::size_t cut_short = 0;
  for (int round = 0; round < 96; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::string damaged = clean;
    const auto kind = rng.next_below(5);
    switch (kind) {
      case 0:
        flip_bits(damaged, rng);
        break;
      case 1:
        damaged.resize(rng.next_below(clean.size()));
        break;
      case 2:
        damaged = clean.substr(0, rng.next_below(clean.size() + 1)) +
                  other.substr(rng.next_below(other.size() + 1));
        break;
      case 3: {
        const std::size_t at = frames[rng.next_below(frames.size())];
        const std::uint32_t length = load_le<std::uint32_t>(
            reinterpret_cast<const std::uint8_t*>(clean.data()) + at);
        const std::uint32_t edges[] = {0, length - 1, 0x7fffffffu,
                                       0xffffffffu};
        store_le(reinterpret_cast<std::uint8_t*>(damaged.data()) + at,
                 edges[rng.next_below(std::size(edges))]);
        break;
      }
      default:  // a flip in the magic
        damaged[rng.next_below(8)] ^=
            static_cast<char>(1u << rng.next_below(8));
        break;
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << damaged;
    const bool magic_intact =
        damaged.size() >= 8 && damaged.compare(0, 8, clean, 0, 8) == 0;

    std::vector<NameSnapshot> recovered;
    try {
      recovered = naming::Journal::recover(path);
    } catch (const ObjectError& error) {
      EXPECT_EQ(error.code(), ErrorCode::bad_object_ref);
      EXPECT_FALSE(magic_intact) << "a journal with its magic intact refused";
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "recover() threw an untyped error: " << e.what();
      continue;
    }
    EXPECT_TRUE(magic_intact || damaged.empty())
        << "a damaged magic was replayed as a journal";

    const std::vector<std::string>& allowed =
        kind == 2 ? either_records : clean_records;
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      const std::string bytes = encoded(recovered[i]);
      if (kind == 2) {
        EXPECT_NE(std::find(allowed.begin(), allowed.end(), bytes),
                  allowed.end())
            << "record " << i << " of a splice is neither source's record";
      } else {
        ASSERT_LT(i, allowed.size());
        EXPECT_EQ(bytes, allowed[i])
            << "record " << i << " is not the clean journal's record " << i;
      }
    }
    if (recovered.size() < clean_records.size()) ++cut_short;

    naming::NameServiceServant replayed;
    for (const NameSnapshot& record : recovered) {
      apply_checked(replayed, record);
    }
  }
  EXPECT_GT(refused, 0u) << "no round damaged the magic";
  EXPECT_GT(cut_short, 0u) << "no round reached the frames";

  // The same records as a peer's catch-up bytes, decoded straight.
  naming::NameServiceServant standby;
  standby.set_role(naming::NameServiceServant::Role::standby);
  std::size_t undecodable = 0;
  for (int round = 0; round < 256; ++round) {
    std::string payload = clean_records[rng.next_below(clean_records.size())];
    const std::string& donor =
        clean_records[rng.next_below(clean_records.size())];
    switch (rng.next_below(4)) {
      case 0:
        flip_bits(payload, rng);
        break;
      case 1:
        payload.resize(rng.next_below(payload.size()));
        break;
      case 2:
        payload = payload.substr(0, rng.next_below(payload.size() + 1)) +
                  donor.substr(rng.next_below(donor.size() + 1));
        break;
      default: {  // a u32 length or count set to an edge value
        const std::uint32_t edges[] = {0, 1, 0x7fffffffu, 0xffffffffu};
        store_be(reinterpret_cast<std::uint8_t*>(payload.data()) +
                     rng.next_below(payload.size() - 3),
                 edges[rng.next_below(std::size(edges))]);
        break;
      }
    }
    NameSnapshot record;
    try {
      record = wire::decode_value<NameSnapshot>(BytesView(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          payload.size()));
    } catch (const Error&) {
      ++undecodable;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "decoding threw an untyped error: " << e.what();
      continue;
    }
    apply_checked(standby, record);
  }
  EXPECT_GT(undecodable, 0u) << "no mutation reached the decoder's checks";

  // A peer may claim any remaining lease time: 2^62 ms overflows a
  // nanosecond expiry, and 2^64 - 1 ms means "for ever", not "expired".
  const Bytes forged = naming::make_bootstrap_ref("10.0.0.9", 7009).to_bytes();
  apply_checked(standby,
                NameSnapshot{"svc/forged", 1,
                             {{1, forged, false, std::uint64_t{1} << 62},
                              {2, forged, false, ~std::uint64_t{0}}}});
  EXPECT_EQ(standby.resolve_all("svc/forged").second.size(), 2u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalRecoveryFuzz,
                         ::testing::Values(0x51, 0x52, 0x53, 0x54, 0x55, 0x56,
                                           0x57, 0x58));

// ---- mutated bootstrap URIs and reference files ----------------------------
//
// A client boots from a URI naming host:port endpoints and reference files
// (naming/bootstrap.hpp); the files come from another process.  The corpus
// is files write_bootstrap_file() writes — one raw reference, and OHPXREFS
// containers of one and of three — and URIs over host:port specs and those
// files.  Each round damages one: a file by bit flips, truncation, the head
// of one file spliced onto the tail of another, or its reference count or
// one reference's length set to an edge value; a URI by bit flips,
// truncation, a splice, or one port's text edited (a sign, a blank,
// trailing garbage, 0, 65536).  Only ObjectError(bad_object_ref) escapes,
// and a host:port spec is accepted only as the port its text spells, in
// 1-65535.  A missing or empty file is retried for ~100 ms, so no round
// names one.

std::string ref_file_bytes(const std::string& path,
                           const std::vector<orb::ObjectRef>& refs) {
  if (refs.size() == 1) {
    naming::write_bootstrap_file(path, refs.front());
  } else {
    naming::write_bootstrap_file(path, refs);
  }
  return read_all(path);
}

/// Byte offsets of an OHPXREFS file's reference length fields.
std::vector<std::size_t> ref_length_offsets(const std::string& raw) {
  std::vector<std::size_t> offsets;
  for (std::size_t pos = 12; pos + 4 <= raw.size();) {
    offsets.push_back(pos);
    pos += 4 + load_be<std::uint32_t>(
                   reinterpret_cast<const std::uint8_t*>(raw.data()) + pos);
  }
  return offsets;
}

std::vector<std::string> uri_specs(const std::string& uri) {
  std::vector<std::string> specs;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = uri.find(',', begin);
    specs.push_back(uri.substr(begin, comma - begin));
    if (comma == std::string::npos) return specs;
    begin = comma + 1;
  }
}

bool names_a_file(const std::string& spec) {
  return spec.rfind("file:", 0) == 0 || spec.find('/') != std::string::npos ||
         (spec.size() > 4 && spec.compare(spec.size() - 4, 4, ".ref") == 0);
}

/// Whether some spec of `uri` names a missing or empty file: reading one
/// is retried for ~110 ms by design, so the fuzz skips those URIs.  A
/// directory is refused at once and stays in.
bool names_a_missing_file(const std::string& uri) {
  for (const std::string& spec : uri_specs(uri)) {
    if (!names_a_file(spec)) continue;
    const std::filesystem::path path =
        spec.rfind("file:", 0) == 0 ? spec.substr(5) : spec;
    std::error_code error;
    if (std::filesystem::is_directory(path, error)) continue;
    if (!std::filesystem::is_regular_file(path, error) ||
        std::filesystem::file_size(path, error) == 0 || error) {
      return true;
    }
  }
  return false;
}

/// bootstrap_refs_from_uri() under the fuzz invariants; true if accepted.
bool boot_checked(const std::string& uri) {
  std::vector<orb::ObjectRef> refs;
  try {
    refs = naming::bootstrap_refs_from_uri(uri);
  } catch (const ObjectError& error) {
    EXPECT_EQ(error.code(), ErrorCode::bad_object_ref) << "'" << uri << "'";
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << uri << "' escaped as an untyped error: "
                  << e.what();
    return false;
  }
  // Specs and references line up one to one until the first file spec.
  const std::vector<std::string> specs = uri_specs(uri);
  for (std::size_t i = 0; i < specs.size() && i < refs.size(); ++i) {
    if (names_a_file(specs[i])) break;
    const std::uint16_t port = refs[i].home().tcp_port;
    EXPECT_GE(port, 1) << "'" << uri << "'";
    EXPECT_EQ(specs[i].substr(specs[i].rfind(':') + 1), std::to_string(port))
        << "'" << uri << "' was read as port " << port;
  }
  return true;
}

class BootstrapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BootstrapFuzz, OnlyTypedRefusalsAndExactPorts) {
  Xoshiro256 rng(GetParam());
  const std::string dir = testing::TempDir() + "ohpx_fuzz_bootstrap_" +
                          std::to_string(::getpid()) + "_";
  const auto some_ref = [&rng] {
    return naming::make_bootstrap_ref(
        "10.0.0." + std::to_string(1 + rng.next_below(250)),
        static_cast<std::uint16_t>(1 + rng.next_below(65535)));
  };
  const std::string one_path = dir + "one.ref";
  const std::string boxed_path = dir + "boxed.ref";
  const std::string many_path = dir + "many.ref";
  const std::string mutated_path = dir + "mutated.ref";
  const std::vector<std::string> files = {
      ref_file_bytes(one_path, {some_ref()}),
      ref_file_bytes(boxed_path, std::vector<orb::ObjectRef>{some_ref()}),
      ref_file_bytes(many_path, {some_ref(), some_ref(), some_ref()})};
  const std::vector<std::string> uris = {
      "127.0.0.1:7400",
      "10.0.0.2:65535,10.0.0.3:1",
      "ns.cluster.local:7401," + one_path,
      "file:" + many_path + ",10.0.0.4:8080",
      boxed_path};
  for (const std::string& uri : uris) {
    ASSERT_TRUE(boot_checked(uri)) << "clean URI refused: " << uri;
  }

  std::size_t files_refused = 0;
  for (int round = 0; round < 64; ++round) {
    SCOPED_TRACE("file round " + std::to_string(round));
    const std::size_t source = rng.next_below(files.size());
    std::string damaged = files[source];
    switch (rng.next_below(5)) {
      case 0:
        flip_bits(damaged, rng);
        break;
      case 1:
        damaged.resize(1 + rng.next_below(damaged.size() - 1));
        break;
      case 2: {
        const std::string& other = files[rng.next_below(files.size())];
        damaged = damaged.substr(0, 1 + rng.next_below(damaged.size())) +
                  other.substr(rng.next_below(other.size()));
        break;
      }
      case 3: {  // the reference count (a raw reference: its first word)
        const std::uint32_t edges[] = {0, 1, 0x7fffffffu, 0xffffffffu};
        store_be(reinterpret_cast<std::uint8_t*>(damaged.data()) +
                     (source == 0 ? 0 : 8),
                 edges[rng.next_below(std::size(edges))]);
        break;
      }
      default: {  // one reference's length
        const std::vector<std::size_t> lengths = ref_length_offsets(damaged);
        const std::size_t at =
            source == 0 ? 0 : lengths[rng.next_below(lengths.size())];
        const std::uint32_t length = load_be<std::uint32_t>(
            reinterpret_cast<const std::uint8_t*>(damaged.data()) + at);
        const std::uint32_t edges[] = {0, length - 1, 0x7fffffffu,
                                       0xffffffffu};
        store_be(reinterpret_cast<std::uint8_t*>(damaged.data()) + at,
                 edges[rng.next_below(std::size(edges))]);
        break;
      }
    }
    std::ofstream(mutated_path, std::ios::binary | std::ios::trunc) << damaged;
    try {
      (void)naming::read_bootstrap_refs(mutated_path);
    } catch (const ObjectError& error) {
      EXPECT_EQ(error.code(), ErrorCode::bad_object_ref);
      ++files_refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a damaged reference file escaped as an untyped "
                       "error: " << e.what();
    }
    (void)boot_checked("127.0.0.1:7400,file:" + mutated_path);
  }
  EXPECT_GT(files_refused, 0u) << "no damaged file reached a refusal";

  const char* port_edits[] = {"+7400", "-7400", " 7400", "7400 ", "7400abc",
                              "7400.9", "0",     "65536", "",      "0x1cf8",
                              "99999999999999999999"};
  std::size_t uris_refused = 0;
  for (int round = 0; round < 96; ++round) {
    SCOPED_TRACE("URI round " + std::to_string(round));
    std::string uri = uris[rng.next_below(uris.size())];
    if (rng.next_below(4) < 3) {
      damage(uri, uris[rng.next_below(uris.size())], rng);
    } else {  // one host:port spec's port text
      std::vector<std::string> specs = uri_specs(uri);
      std::string& spec = specs[rng.next_below(specs.size())];
      if (!names_a_file(spec)) {
        spec = spec.substr(0, spec.rfind(':') + 1) +
               port_edits[rng.next_below(std::size(port_edits))];
        uri.clear();
        for (const std::string& part : specs) {
          uri += (uri.empty() ? "" : ",") + part;
        }
      }
    }
    if (names_a_missing_file(uri)) continue;
    if (!boot_checked(uri)) ++uris_refused;
  }
  EXPECT_GT(uris_refused, 0u) << "no damaged URI reached a refusal";

  for (const std::string& path :
       {one_path, boxed_path, many_path, mutated_path}) {
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BootstrapFuzz,
                         ::testing::Values(0x61, 0x62, 0x63, 0x64, 0x65, 0x66,
                                           0x67, 0x68));

// ---- mutated capability descriptors and topology texts ---------------------
//
// An object reference carries its glue entries' capability descriptors to
// whichever process binds it, and a topology text is handed over by a
// deployment; every number in either is read by the strict readers
// (common/parse.hpp).  The corpus is descriptor() and server_descriptor()
// of every builtin (with non-default scopes where a kind has one),
// references carrying them in glue entries, and topology texts the tests
// parse.  Every parameter of every descriptor, and every link spec and
// campus id of every text, is set to each edge value (empty, 0, a max,
// max + 1, 2^64, a sign, trailing bytes, nan, inf); then seeded rounds edit
// one value (a digit, a sign, trailing bytes, an edge), a parameter name
// or the kind, and damage() encoded references and texts.  Only typed
// ohpx::Errors escape ObjectRef::from_bytes, instantiate and
// parse_topology; every chain that instantiates seals and opens payloads
// of 0-300 bytes back to themselves; every topology that parses has
// finite, positive bandwidths.

std::vector<cap::CapabilityDescriptor> descriptor_corpus() {
  const crypto::Key128 key = crypto::Key128::from_seed(0xd35c);
  const auto verifier = cap::DelegationCapability::make_root(key);
  const cap::CapabilityPtr builtins[] = {
      std::make_shared<cap::AuthenticationCapability>(key, "alice",
                                                      cap::Scope::remote),
      std::make_shared<cap::EncryptionCapability>(key, cap::Scope::cross_lan),
      std::make_shared<cap::ChecksumCapability>(cap::Scope::same_lan),
      std::make_shared<cap::CompressionCapability>(compress::CodecId::rle,
                                                   cap::Scope::cross_campus),
      std::make_shared<cap::PaddingCapability>(64, cap::Scope::remote),
      std::make_shared<cap::QuotaCapability>(9, cap::Scope::cross_lan),
      std::make_shared<cap::LeaseCapability>(std::chrono::milliseconds(60'000),
                                             cap::Scope::same_machine),
      std::make_shared<cap::AuditCapability>(16),
      std::make_shared<cap::RateLimitCapability>(250.5, 8.0),
      std::make_shared<cap::FaultCapability>(
          cap::FaultSpec{.fail_every = 3,
                         .refuse_ratio = 0.25,
                         .seed = (std::uint64_t{1} << 63) + 7,
                         .refuse_at = {2, 5}}),
      verifier,
      verifier->attenuate("method<=3")->attenuate("size<=4096"),
  };
  std::vector<cap::CapabilityDescriptor> corpus;
  for (const cap::CapabilityPtr& capability : builtins) {
    corpus.push_back(capability->descriptor());
    corpus.push_back(capability->server_descriptor());
  }
  return corpus;
}

/// An encoded reference whose glue entry carries `descriptors`.
std::string glued_ref_bytes(
    const std::vector<cap::CapabilityDescriptor>& descriptors) {
  proto::ProtoTable table;
  table.add(proto::ProtocolEntry{
      "glue", proto::encode_glue_proto_data(proto::GlueProtoData{
                  7, proto::ProtocolEntry{"shm", {}}, descriptors})});
  table.add(proto::ProtocolEntry{"shm", {}});
  const Bytes raw =
      orb::ObjectRef(0xca5e, "Echo", proto::ServerAddress{}, table).to_bytes();
  return std::string(raw.begin(), raw.end());
}

std::string describe(const std::vector<cap::CapabilityDescriptor>& chain) {
  std::string out;
  for (const cap::CapabilityDescriptor& descriptor : chain) {
    out += descriptor.kind + "{";
    for (const auto& [name, value] : descriptor.params) {
      out += " " + name + "='" + value + "'";
    }
    out += " } ";
  }
  return out;
}

/// instantiate_chain() under the fuzz invariants: a typed refusal, or a
/// chain that seals and opens payloads back to themselves.  Replies, so
/// that admission (quotas, leases, faults) and delegation tokens, which
/// apply to requests, leave the payload pass alone.  True if it
/// instantiated.
bool chain_checked(const std::vector<cap::CapabilityDescriptor>& descriptors,
                   Xoshiro256& rng) {
  std::optional<cap::CapabilityChain> chain;
  try {
    chain.emplace(
        cap::CapabilityRegistry::instance().instantiate_chain(descriptors));
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << describe(descriptors)
                  << "escaped as an untyped error: " << e.what();
    return false;
  }
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1},
        static_cast<std::size_t>(rng.next_below(301)), std::size_t{300}}) {
    Bytes body(size);
    for (auto& byte : body) byte = static_cast<std::uint8_t>(rng.next());
    cap::CallContext call;
    call.request_id = rng.next();
    call.direction = cap::Direction::reply;
    wire::Buffer payload(body);
    try {
      chain->process_outbound(payload, call);
      chain->process_inbound(payload, call);
      EXPECT_EQ(payload.bytes(), body)
          << describe(descriptors) << "did not open what it sealed";
    } catch (const std::exception& e) {
      ADD_FAILURE() << describe(descriptors) << "failed on " << size
                    << " bytes: " << e.what();
    }
  }
  return true;
}

/// A reference's bytes under the fuzz invariants: from_bytes() and each
/// glue entry's chain refuse typed or instantiate sound.
void ref_checked(const std::string& raw, Xoshiro256& rng) {
  try {
    const orb::ObjectRef ref = orb::ObjectRef::from_bytes(BytesView(
        reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()));
    for (const proto::ProtocolEntry& entry : ref.table().entries()) {
      if (entry.name != "glue") continue;
      chain_checked(proto::decode_glue_proto_data(entry.proto_data).capabilities,
                    rng);
    }
  } catch (const Error&) {
    // a damaged reference, refused typed
  } catch (const std::exception& e) {
    ADD_FAILURE() << "a damaged reference escaped as an untyped error: "
                  << e.what();
  }
}

const char* const kValueEdges[] = {
    "",  "0",  "1",  "-1",  "+1",     " 1",  "1 ", "5calls", "0x10", "1e3",
    "0.5", "nan", "inf", "-inf", "4294967295", "4294967296",  // u32 max, + 1
    "65536", "65537",  // padding's largest block, + 1
    "9223372036854775807", "18446744073709551615",  // i64 max, u64 max
    "18446744073709551616", "99999999999999999999999",  // 2^64, past it
    "1,x", "1,,2", "remote", "bogus"};

std::string edited_value(std::string value, Xoshiro256& rng) {
  switch (rng.next_below(4)) {
    case 0: {  // one digit changed
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (value[i] >= '0' && value[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) return value + "7";
      value[digits[rng.next_below(digits.size())]] =
          static_cast<char>('0' + rng.next_below(10));
      return value;
    }
    case 1:
      return (rng.next_below(2) == 0 ? "-" : "+") + value;
    case 2: {
      const char* tails[] = {"x", " ", ".", ".5", "0", "e9", "\n", "calls"};
      return value + tails[rng.next_below(std::size(tails))];
    }
    default:
      return kValueEdges[rng.next_below(std::size(kValueEdges))];
  }
}

/// Renames one parameter, drops it, or changes the kind.
void edit_names(cap::CapabilityDescriptor& descriptor, Xoshiro256& rng) {
  const char* kinds[] = {"quota",       "lease",      "padding",
                         "audit",       "ratelimit",  "fault",
                         "checksum",    "compression", "encryption",
                         "authentication", "delegation", "", "quota2"};
  if (descriptor.params.empty() || rng.next_below(3) == 0) {
    descriptor.kind = kinds[rng.next_below(std::size(kinds))];
    return;
  }
  const auto victim = std::next(
      descriptor.params.begin(),
      static_cast<std::ptrdiff_t>(rng.next_below(descriptor.params.size())));
  const std::string value = victim->second;
  const std::string name = victim->first;
  descriptor.params.erase(victim);
  if (rng.next_below(2) == 0) descriptor.params[name + "_"] = value;
}

class CapabilityDescriptorFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CapabilityDescriptorFuzz, OnlyTypedRefusalsAndSoundChains) {
  Xoshiro256 rng(GetParam());
  const std::vector<cap::CapabilityDescriptor> corpus = descriptor_corpus();
  for (const cap::CapabilityDescriptor& descriptor : corpus) {
    ASSERT_TRUE(chain_checked({descriptor}, rng)) << describe({descriptor});
  }

  std::size_t refused = 0;
  for (const cap::CapabilityDescriptor& descriptor : corpus) {
    for (const auto& [name, value] : descriptor.params) {
      for (const char* edge : kValueEdges) {
        cap::CapabilityDescriptor edited = descriptor;
        edited.params[name] = edge;
        if (!chain_checked({edited}, rng)) ++refused;
      }
    }
  }
  EXPECT_GT(refused, 0u) << "no edge value reached a refusal";

  for (int round = 0; round < 256; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<cap::CapabilityDescriptor> chain;
    for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n) {
      chain.push_back(corpus[rng.next_below(corpus.size())]);
    }
    cap::CapabilityDescriptor& victim = chain[rng.next_below(chain.size())];
    if (victim.params.empty() || rng.next_below(4) == 0) {
      edit_names(victim, rng);
    } else {
      auto& value = std::next(victim.params.begin(),
                              static_cast<std::ptrdiff_t>(
                                  rng.next_below(victim.params.size())))
                        ->second;
      value = edited_value(value, rng);
    }
    chain_checked(chain, rng);
  }

  const std::vector<std::string> refs = {
      glued_ref_bytes(corpus),
      glued_ref_bytes({corpus[0], corpus[2], corpus[8], corpus[10]}),
      glued_ref_bytes({corpus[16], corpus[18], corpus[22]})};
  for (int round = 0; round < 128; ++round) {
    SCOPED_TRACE("reference round " + std::to_string(round));
    std::string raw = refs[rng.next_below(refs.size())];
    damage(raw, refs[rng.next_below(refs.size())], rng);
    ref_checked(raw, rng);
  }
}

const char* const kTopologies[] = {
    R"(# the paper's figure-4 world
lan lab atm155 campus=0
lan annex ethernet100 campus=0
lan uni ethernet100 campus=1
machine bigiron lab
machine ws17 lab
machine annex1 annex
machine cluster uni
wan lab annex atm155
default_wan t3
loopback custom:2000:20
)",
    "# nothing\n\nlan a # trailing\nmachine m a\n",
    "lan cluster atm155\nmachine node0 cluster\nmachine node1 cluster\n",
    "lan wet custom:622:200 campus=3\nlan dry custom:0.5:1500\n"
    "wan wet dry custom:45:10000\ndefault_wan ethernet10\n"};

const char* const kLinkEdges[] = {
    "custom:nan:5",      "custom:inf:5",       "custom:-inf:5",
    "custom:100abc:5",   "custom:1e308:5",     "custom:0:5",
    "custom:-5:10",      "custom:+5:10",       "custom: 5:10",
    "custom:5",          "custom:5:",          "custom:5:1e3",
    "custom:0.000001:0", "custom:1000000000:0", "custom:1000000001:0",
    "custom:5:9223372036854775807",  "custom:5:18446744073709551616",
    "campus=7x",         "campus=-1",          "campus=4294967296",
    "campus=",           "t3"};

/// Byte offset and length of each link spec and campus id in `text`.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t begin = 0; begin < text.size();) {
    begin = text.find_first_not_of(" \t\n", begin);
    if (begin == std::string::npos) break;
    const std::size_t end = std::min(text.find_first_of(" \t\n", begin),
                                     text.size());
    const std::string token = text.substr(begin, end - begin);
    if (token.rfind("custom:", 0) == 0 || token.rfind("campus=", 0) == 0 ||
        token == "t3" || token == "atm155" || token.rfind("ethernet", 0) == 0) {
      tokens.emplace_back(begin, end - begin);
    }
    begin = end;
  }
  return tokens;
}

/// parse_topology() under the fuzz invariants; true if it parsed.
bool topology_checked(const std::string& text) {
  std::optional<netsim::ParsedTopology> parsed;
  try {
    parsed.emplace(netsim::parse_topology(text));
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << text << "' escaped as an untyped error: "
                  << e.what();
    return false;
  }
  // Two probe machines on each LAN reach every link: the loopback, each
  // LAN's own, and each pair's WAN or the default.
  netsim::Topology& topology = parsed->topology();
  std::vector<netsim::MachineId> probes;
  for (const auto& [name, lan] : parsed->lans) {
    probes.push_back(topology.add_machine(name + "/probe0", lan));
    probes.push_back(topology.add_machine(name + "/probe1", lan));
  }
  for (const netsim::MachineId a : probes) {
    for (const netsim::MachineId b : probes) {
      const double bps = topology.link_between(a, b).bandwidth_bps;
      EXPECT_TRUE(std::isfinite(bps) && bps > 0.0)
          << "'" << text << "' parsed a bandwidth of " << bps;
    }
  }
  return true;
}

TEST_P(CapabilityDescriptorFuzz, TopologiesParseSoundOrRefuseTyped) {
  Xoshiro256 rng(GetParam());
  const std::vector<std::string> texts(std::begin(kTopologies),
                                       std::end(kTopologies));
  std::size_t refused = 0;
  for (const std::string& text : texts) {
    ASSERT_TRUE(topology_checked(text)) << text;
    for (const auto& [at, length] : number_tokens(text)) {
      for (const char* edge : kLinkEdges) {
        if (!topology_checked(std::string(text).replace(at, length, edge))) {
          ++refused;
        }
      }
    }
  }
  EXPECT_GT(refused, 0u) << "no edge value reached a refusal";

  for (int round = 0; round < 256; ++round) {
    std::string text = texts[rng.next_below(texts.size())];
    const auto tokens = number_tokens(text);
    if (tokens.empty() || rng.next_below(2) == 0) {
      damage(text, texts[rng.next_below(texts.size())], rng);
    } else {
      const auto& [at, length] = tokens[rng.next_below(tokens.size())];
      text.replace(at, length, edited_value(text.substr(at, length), rng));
    }
    topology_checked(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapabilityDescriptorFuzz,
                         ::testing::Values(0x71, 0x72, 0x73, 0x74, 0x75, 0x76,
                                           0x77, 0x78));

}  // namespace
}  // namespace ohpx
