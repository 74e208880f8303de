// Robustness sweeps: the server pipeline must survive arbitrary byte-level
// corruption — every mutated frame yields a well-formed reply frame (error
// or success), never a crash or an unframed blob.  Same discipline for the
// client decoding mutated replies: typed exceptions only, on the reactor's
// demux path too, where mutated reply streams arrive over a real socket.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/compression.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"
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

}  // namespace
}  // namespace ohpx
