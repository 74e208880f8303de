// Unit tests for the protocol layer: tables, pools, selection semantics,
// glue proto-data, glue protocol behaviour over a fake delegate, the tcp
// protocol over a real listener, and the protocol registry.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/stub.hpp"
#include "ohpx/protocol/glue.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/protocol/nexus_sim.hpp"
#include "ohpx/protocol/pool.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/protocol/select.hpp"
#include "ohpx/protocol/shm.hpp"
#include "ohpx/protocol/tcp_proto.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::proto {
namespace {

// ---- entries / tables --------------------------------------------------------

TEST(ProtoTable, SerializationRoundTrip) {
  ProtoTable table;
  table.add(ProtocolEntry{"glue", Bytes{1, 2, 3}});
  table.add(ProtocolEntry{"shm", {}});
  table.add(ProtocolEntry{"nexus-tcp", Bytes{9}});

  const wire::Buffer encoded = wire::encode_value(table);
  const auto decoded = wire::decode_value<ProtoTable>(encoded.view());
  EXPECT_EQ(decoded, table);
  EXPECT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded.at(0).name, "glue");
}

TEST(ProtoTable, PreservesPreferenceOrder) {
  ProtoTable table({{"a", {}}, {"b", {}}, {"c", {}}});
  EXPECT_EQ(table.entries()[0].name, "a");
  EXPECT_EQ(table.entries()[2].name, "c");
}

// ---- pool ----------------------------------------------------------------------

TEST(Pool, StandardAllowsBuiltins) {
  const ProtoPool pool = ProtoPool::standard();
  EXPECT_TRUE(pool.allows("glue"));
  EXPECT_TRUE(pool.allows("shm"));
  EXPECT_TRUE(pool.allows("tcp"));
  EXPECT_TRUE(pool.allows("nexus-tcp"));
  EXPECT_FALSE(pool.allows("carrier-pigeon"));
}

TEST(Pool, EnableDisablePrefer) {
  ProtoPool pool;
  EXPECT_EQ(pool.size(), 0u);
  pool.enable("a");
  pool.enable("b");
  pool.enable("a");  // idempotent
  EXPECT_EQ(pool.size(), 2u);
  pool.prefer("b");
  EXPECT_EQ(pool.allowed().front(), "b");
  pool.disable("a");
  EXPECT_FALSE(pool.allows("a"));
  EXPECT_EQ(pool.size(), 1u);
}

// ---- glue wire helpers ------------------------------------------------------------

TEST(GlueWire, ProtoDataRoundTrip) {
  GlueProtoData data;
  data.glue_id = 0xdeadbeef;
  data.delegate = ProtocolEntry{"nexus-tcp", Bytes{7, 7}};
  data.capabilities.push_back(
      cap::CapabilityDescriptor{"quota", {{"max_calls", "5"}}});

  const Bytes encoded = encode_glue_proto_data(data);
  const GlueProtoData decoded = decode_glue_proto_data(encoded);
  EXPECT_EQ(decoded.glue_id, data.glue_id);
  EXPECT_EQ(decoded.delegate, data.delegate);
  ASSERT_EQ(decoded.capabilities.size(), 1u);
  EXPECT_EQ(decoded.capabilities[0].kind, "quota");
  EXPECT_EQ(decoded.capabilities[0].params.at("max_calls"), "5");
}

TEST(GlueWire, MalformedProtoDataThrows) {
  EXPECT_THROW(decode_glue_proto_data(Bytes{1, 2}), WireError);
}

TEST(GlueWire, GlueIdPrefixRoundTrip) {
  wire::Buffer payload(Bytes{10, 20, 30});
  prepend_glue_id(payload, 0x01020304);
  EXPECT_EQ(payload.size(), 7u);
  EXPECT_EQ(payload.bytes(), (Bytes{1, 2, 3, 4, 10, 20, 30}));
  BytesView rest = payload.view();
  EXPECT_EQ(strip_glue_id(rest), 0x01020304u);
  EXPECT_EQ(Bytes(rest.begin(), rest.end()), (Bytes{10, 20, 30}));
  EXPECT_EQ(rest.data(), payload.data() + kGlueIdSize);  // no copy
}

TEST(GlueWire, PrependToEmptyPayload) {
  wire::Buffer payload;
  prepend_glue_id(payload, 0xa1b2c3d4);
  EXPECT_EQ(payload.bytes(), (Bytes{0xa1, 0xb2, 0xc3, 0xd4}));
  BytesView rest = payload.view();
  EXPECT_EQ(strip_glue_id(rest), 0xa1b2c3d4u);
  EXPECT_TRUE(rest.empty());
}

TEST(GlueWire, StripFromShortPayloadThrows) {
  const Bytes raw{1, 2};
  BytesView payload(raw);
  EXPECT_THROW(strip_glue_id(payload), WireError);
  EXPECT_EQ(payload.size(), 2u);  // left untouched
}

// ---- applicability of concrete protocols ---------------------------------------------

struct Placements {
  Placements() {
    const auto lan = topo.add_lan("l");
    a = topo.add_machine("a", lan);
    b = topo.add_machine("b", lan);
  }

  CallTarget local_target() {
    CallTarget target;
    target.placement = netsim::Placement{a, a, &topo};
    target.address.endpoint = "ctx/test";
    target.address.machine = a;
    return target;
  }

  CallTarget remote_target() {
    CallTarget target;
    target.placement = netsim::Placement{a, b, &topo};
    target.address.endpoint = "ctx/test";
    target.address.machine = b;
    return target;
  }

  netsim::Topology topo;
  netsim::MachineId a{}, b{};
};

TEST(Applicability, ShmOnlySameMachine) {
  Placements placements;
  ShmProtocol shm;
  EXPECT_TRUE(shm.applicable(placements.local_target()));
  EXPECT_FALSE(shm.applicable(placements.remote_target()));

  CallTarget no_endpoint = placements.local_target();
  no_endpoint.address.endpoint.clear();
  EXPECT_FALSE(shm.applicable(no_endpoint));
}

TEST(Applicability, NexusNeedsEndpointOnly) {
  Placements placements;
  NexusSimProtocol nexus;
  EXPECT_TRUE(nexus.applicable(placements.local_target()));
  EXPECT_TRUE(nexus.applicable(placements.remote_target()));
}

TEST(Applicability, TcpNeedsAdvertisedPort) {
  Placements placements;
  TcpProtocol tcp;
  CallTarget target = placements.remote_target();
  EXPECT_FALSE(tcp.applicable(target));
  target.address.tcp_host = "127.0.0.1";
  target.address.tcp_port = 9999;
  EXPECT_TRUE(tcp.applicable(target));
}

// ---- selection ---------------------------------------------------------------------------

std::vector<ProtocolPtr> standard_candidates() {
  std::vector<ProtocolPtr> out;
  out.push_back(std::make_unique<ShmProtocol>());
  out.push_back(std::make_unique<NexusSimProtocol>());
  return out;
}

TEST(Selection, FirstApplicableWins) {
  Placements placements;
  const auto candidates = standard_candidates();
  const ProtoPool pool = ProtoPool::standard();

  EXPECT_EQ(select_protocol(candidates, pool, placements.local_target())->name(),
            "shm");
  EXPECT_EQ(select_protocol(candidates, pool, placements.remote_target())->name(),
            "nexus-tcp");
}

TEST(Selection, PoolFiltersCandidates) {
  Placements placements;
  const auto candidates = standard_candidates();
  ProtoPool pool({"nexus-tcp"});  // shm not allowed locally
  EXPECT_EQ(select_protocol(candidates, pool, placements.local_target())->name(),
            "nexus-tcp");
}

TEST(Selection, NoMatchReturnsNullOrThrows) {
  Placements placements;
  const auto candidates = standard_candidates();
  const ProtoPool empty_pool;
  EXPECT_EQ(select_protocol(candidates, empty_pool, placements.local_target()),
            nullptr);
  try {
    select_protocol_or_throw(candidates, empty_pool, placements.local_target());
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::protocol_no_match);
  }
}

TEST(Selection, OrderIsTablePreferenceNotPoolPreference) {
  Placements placements;
  std::vector<ProtocolPtr> candidates;
  candidates.push_back(std::make_unique<NexusSimProtocol>());
  candidates.push_back(std::make_unique<ShmProtocol>());
  // The pool lists shm first, but the table's first applicable entry
  // (nexus) must win — the paper's "first match" walks the OR table.
  ProtoPool pool({"shm", "nexus-tcp"});
  EXPECT_EQ(select_protocol(candidates, pool, placements.local_target())->name(),
            "nexus-tcp");
}

// ---- glue protocol over a fake delegate ------------------------------------------------

/// Delegate that records what it saw and echoes the payload as the reply.
class RecordingProtocol final : public Protocol {
 public:
  std::string_view name() const noexcept override { return "recording"; }
  bool applicable(const CallTarget&) const override { return applicable_; }

  ReplyMessage invoke(const wire::MessageHeader& header,
                      const wire::Buffer& payload, const CallTarget&,
                      CostLedger&) override {
    last_header = header;
    last_payload = payload.bytes();
    ReplyMessage reply;
    reply.header.type = wire::MessageType::reply;
    reply.header.request_id = header.request_id;
    reply.header.object_id = header.object_id;
    reply.header.flags = reply_flags;
    reply.payload = payload;
    return reply;
  }

  bool applicable_ = true;
  std::uint16_t reply_flags = 0;
  wire::MessageHeader last_header;
  Bytes last_payload;
};

TEST(Glue, MarksHeaderAndPrependsGlueId) {
  auto delegate = std::make_unique<RecordingProtocol>();
  auto* recorder = delegate.get();
  GlueProtocol glue(42, cap::CapabilityChain{}, std::move(delegate));

  wire::MessageHeader header;
  header.request_id = 5;
  header.object_id = 6;
  CallTarget target;
  CostLedger ledger;
  wire::Buffer payload(Bytes{0xaa});
  glue.invoke(header, payload, target, ledger);

  EXPECT_TRUE(recorder->last_header.flags & wire::kFlagGlueProcessed);
  ASSERT_EQ(recorder->last_payload.size(), 5u);  // 4-byte glue id + 1 byte
  EXPECT_EQ(recorder->last_payload[3], 42);
  EXPECT_EQ(recorder->last_payload[4], 0xaa);
}

TEST(Glue, UnprocessesFlaggedReplies) {
  // Chain with checksum: the recording delegate echoes the processed
  // payload (including the glue id prefix, which the real server strips —
  // emulate that by checking the client-side unprocess path only when the
  // reply is flagged).
  auto delegate = std::make_unique<RecordingProtocol>();
  auto* recorder = delegate.get();
  recorder->reply_flags = 0;  // server says: reply NOT glue-processed
  cap::CapabilityChain chain({std::make_shared<cap::ChecksumCapability>()});
  GlueProtocol glue(1, std::move(chain), std::move(delegate));

  wire::MessageHeader header;
  header.request_id = 9;
  CallTarget target;
  CostLedger ledger;
  // Unflagged reply passes through untouched (it still carries the glue id
  // + checksum the request chain added, since the recorder just echoes).
  wire::Buffer payload(Bytes{1, 2, 3});
  const ReplyMessage reply = glue.invoke(header, payload, target, ledger);
  EXPECT_EQ(reply.payload.size(), 3u + 4u + 4u);  // payload + glue id + crc
}

TEST(Glue, ApplicabilityAndsChainWithDelegate) {
  Placements placements;
  {
    auto delegate = std::make_unique<RecordingProtocol>();
    GlueProtocol glue(1,
                      cap::CapabilityChain({std::make_shared<cap::QuotaCapability>(
                          1, cap::Scope::never)}),
                      std::move(delegate));
    EXPECT_FALSE(glue.applicable(placements.local_target()));
  }
  {
    auto delegate = std::make_unique<RecordingProtocol>();
    delegate->applicable_ = false;
    GlueProtocol glue(1, cap::CapabilityChain{}, std::move(delegate));
    EXPECT_FALSE(glue.applicable(placements.local_target()));
  }
  {
    auto delegate = std::make_unique<RecordingProtocol>();
    GlueProtocol glue(1, cap::CapabilityChain{}, std::move(delegate));
    EXPECT_TRUE(glue.applicable(placements.local_target()));
  }
}

TEST(Glue, AdmissionRefusalSurfacesBeforeDelegate) {
  auto delegate = std::make_unique<RecordingProtocol>();
  auto* recorder = delegate.get();
  GlueProtocol glue(
      1, cap::CapabilityChain({std::make_shared<cap::QuotaCapability>(0)}),
      std::move(delegate));

  wire::MessageHeader header;
  CallTarget target;
  CostLedger ledger;
  wire::Buffer payload(Bytes{1});
  EXPECT_THROW(glue.invoke(header, payload, target, ledger),
               CapabilityDenied);
  EXPECT_TRUE(recorder->last_payload.empty());  // delegate never reached
}

TEST(Glue, NullDelegateRejected) {
  EXPECT_THROW(GlueProtocol(1, cap::CapabilityChain{}, nullptr), ProtocolError);
}

TEST(Glue, DescribeShowsChainAndDelegate) {
  auto delegate = std::make_unique<RecordingProtocol>();
  GlueProtocol glue(
      1, cap::CapabilityChain({std::make_shared<cap::QuotaCapability>(1)}),
      std::move(delegate));
  EXPECT_EQ(glue.describe(), "glue[quota]->recording");
}

// ---- tcp protocol: one bearer, CallCore the only retrier ---------------------------------

// Answers every request frame with a reply frame carrying the same body:
// a call marshalling one value gets that value back.
wire::Buffer echo_frame(BytesView frame) {
  BytesView body;
  wire::MessageHeader header = wire::decode_frame(frame, body);
  header.type = wire::MessageType::reply;
  return wire::encode_frame(header, body);
}

// A reference naming a raw TCP endpoint through the tcp protocol alone.
orb::ObjectRef tcp_ref_to(std::uint16_t port) {
  ServerAddress address;
  address.machine = netsim::kInvalidMachine;
  address.tcp_host = "127.0.0.1";
  address.tcp_port = port;
  ProtoTable table;
  table.add(ProtocolEntry{"tcp", {}});
  return orb::ObjectRef(0x7c9001, "Echo", address, table);
}

std::uint64_t retries_now() {
  return metrics::MetricsRegistry::global()
      .counter_handle(metrics::names::kRmiRetries)
      ->load(std::memory_order_relaxed);
}

class TcpStubFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ctx_ = &world_.create_context(
        world_.add_machine("client", world_.add_lan("lan")));
  }

  runtime::World world_;
  orb::Context* client_ctx_ = nullptr;
};

// Each way the ledger charges the whole frame: the request as the reactor
// sent it (the correlation id it stamps included), as the server read it.
TEST(TcpProtocolTest, InvokeChargesTheLedger) {
  std::atomic<std::size_t> request_frame{0};
  transport::TcpListener listener(0, [&request_frame](BytesView frame) {
    request_frame = frame.size();
    return echo_frame(frame);
  });
  TcpProtocol tcp;
  CallTarget target;
  target.address.tcp_host = "127.0.0.1";
  target.address.tcp_port = listener.port();

  wire::MessageHeader header;
  header.request_id = 7;
  CostLedger ledger;
  wire::Buffer payload(Bytes{1, 2, 3});
  const ReplyMessage reply = tcp.invoke(header, payload, target, ledger);
  EXPECT_EQ(reply.payload.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(reply.header.request_id, 7u);
  EXPECT_GT(ledger.real().count(), 0);
  EXPECT_EQ(ledger.bytes_sent(), request_frame.load());
  EXPECT_EQ(ledger.bytes_sent(),
            wire::kHeaderSize + wire::kCorrelationExtensionSize + 3u);
  EXPECT_EQ(ledger.bytes_received(), reply.frame_size);

  // Traced and under a deadline: the request carries all three
  // extensions.
  const std::int64_t deadline =
      resilience::now_ns() + std::int64_t{60} * 1000 * 1000 * 1000;
  resilience::DeadlineScope scope(deadline);
  header.request_id = 8;
  header.flags = wire::kFlagTraceContext | wire::kFlagDeadline;
  header.trace_hi = 1;
  header.trace_lo = 2;
  header.trace_parent_span = 3;
  header.trace_flags = wire::kTraceFlagSampled;
  header.deadline_ns = deadline;
  CostLedger traced;
  const ReplyMessage traced_reply =
      tcp.invoke(header, payload, target, traced);
  EXPECT_EQ(traced_reply.header.request_id, 8u);
  EXPECT_EQ(traced.bytes_sent(), request_frame.load());
  EXPECT_EQ(traced.bytes_sent(),
            wire::kHeaderSize + wire::kTraceExtensionSize +
                wire::kDeadlineExtensionSize +
                wire::kCorrelationExtensionSize + 3u);
  EXPECT_EQ(traced.bytes_received(), traced_reply.frame_size);
}

TEST_F(TcpStubFixture, ReconnectsAfterServerRestart) {
  // A cached connection goes stale when the server restarts.  The tcp
  // protocol never resends: either the reactor saw the close first and the
  // call dials fresh, or the attempt fails and CallCore's counted retry
  // dials fresh — at most one retry, and the call succeeds either way.
  auto first = std::make_unique<transport::TcpListener>(0, echo_frame);
  const std::uint16_t port = first->port();
  orb::ObjectStub stub(*client_ctx_, tcp_ref_to(port));
  EXPECT_EQ(stub.call<std::string>(1, std::string("before")), "before");

  first.reset();
  transport::TcpListener second(port, echo_frame);

  const std::uint64_t retries_before = retries_now();
  EXPECT_EQ(stub.call<std::string>(1, std::string("after")), "after");
  EXPECT_LE(retries_now() - retries_before, 1u);
}

TEST_F(TcpStubFixture, WireAttemptsNeverExceedMaxAttempts) {
  // An endpoint that reads one frame per connection and then drops it: the
  // handler counts, then throws, and the listener closes the connection.
  std::atomic<int> handled{0};
  transport::TcpListener listener(
      0, [&handled](BytesView) -> wire::Buffer {
        ++handled;
        throw std::runtime_error("drop the connection");
      });
  orb::ObjectStub stub(*client_ctx_, tcp_ref_to(listener.port()));
  ASSERT_EQ(resilience::RetryPolicy{}.max_attempts, 3);

  const std::uint64_t retries_before = retries_now();
  EXPECT_THROW(stub.call<std::string>(1, std::string("x")), TransportError);
  // One frame on the wire per CallCore attempt, two of them retries.
  EXPECT_EQ(handled.load(), 3);
  EXPECT_EQ(retries_now() - retries_before, 2u);
}

// As tcp_ref_to, with glue[authentication] in front of tcp.
orb::ObjectRef glue_auth_ref_to(std::uint16_t port) {
  orb::ObjectRef tcp = tcp_ref_to(port);
  GlueProtoData glue;
  glue.glue_id = 1;
  glue.delegate = ProtocolEntry{"tcp", {}};
  glue.capabilities.push_back(
      cap::AuthenticationCapability(crypto::Key128::from_seed(5), "mismatch",
                                    cap::Scope::always)
          .descriptor());
  ProtoTable table;
  table.add(ProtocolEntry{"glue", encode_glue_proto_data(glue)});
  return orb::ObjectRef(tcp.object_id(), "Echo", tcp.home(), table);
}

// A server whose reply the caller must refuse: a request-typed frame, or a
// reply for another request id.  Either keeps the correlation id, so the
// reactor settles the call with it and the refusal is the reply check's.
// Through glue the check comes before the chain unprocesses the reply,
// as it does for the sync delegate: the echoed body would otherwise fail
// authentication first.  Parameters: request-typed, through glue.
class MismatchedReplyTest
    : public TcpStubFixture,
      public ::testing::WithParamInterface<std::tuple<bool, bool>> {};

TEST_P(MismatchedReplyTest, SyncAndAsyncCallsThrowProtocolUnknown) {
  const bool request_typed = std::get<0>(GetParam());
  const bool through_glue = std::get<1>(GetParam());
  transport::TcpListener listener(
      0, [request_typed](BytesView frame) {
        BytesView body;
        wire::MessageHeader header = wire::decode_frame(frame, body);
        if (!request_typed) {
          header.type = wire::MessageType::reply;
          ++header.request_id;
        }
        return wire::encode_frame(header, body);
      });
  orb::ObjectStub stub(*client_ctx_, through_glue
                                         ? glue_auth_ref_to(listener.port())
                                         : tcp_ref_to(listener.port()));
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "call_async" : "call");
    try {
      if (async) {
        (void)stub.call_async<std::string>(1, std::string("x")).get();
      } else {
        (void)stub.call<std::string>(1, std::string("x"));
      }
      ADD_FAILURE() << "the mismatched reply was accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), ErrorCode::protocol_unknown);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Replies, MismatchedReplyTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "RequestTyped"
                                                 : "OtherRequestId") +
             (std::get<1>(info.param) ? "ThroughGlue" : "");
    });

// ---- registry ------------------------------------------------------------------------------

TEST(Registry, BuiltinsPresent) {
  auto& registry = ProtocolRegistry::instance();
  for (const char* name : {"shm", "nexus-tcp", "tcp", "glue"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(Registry, UnknownProtocolRefused) {
  try {
    ProtocolRegistry::instance().instantiate(ProtocolEntry{"warp-drive", {}});
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::protocol_unknown);
  }
}

TEST(Registry, InstantiateTableSkipsUnknown) {
  ProtoTable table;
  table.add(ProtocolEntry{"warp-drive", {}});
  table.add(ProtocolEntry{"shm", {}});
  const auto protocols = ProtocolRegistry::instance().instantiate_table(table);
  ASSERT_EQ(protocols.size(), 1u);
  EXPECT_EQ(protocols[0]->name(), "shm");
}

TEST(Registry, GlueFactoryRebuildsChainAndDelegate) {
  GlueProtoData data;
  data.glue_id = 77;
  data.delegate = ProtocolEntry{"nexus-tcp", {}};
  data.capabilities.push_back(
      cap::QuotaCapability(9).descriptor());
  data.capabilities.push_back(
      cap::EncryptionCapability(crypto::Key128::from_seed(3)).descriptor());

  ProtocolEntry entry{"glue", encode_glue_proto_data(data)};
  const ProtocolPtr protocol = ProtocolRegistry::instance().instantiate(entry);
  auto* glue = dynamic_cast<GlueProtocol*>(protocol.get());
  ASSERT_NE(glue, nullptr);
  EXPECT_EQ(glue->glue_id(), 77u);
  EXPECT_EQ(glue->chain().size(), 2u);
  EXPECT_EQ(glue->delegate().name(), "nexus-tcp");
}

TEST(Registry, NestedGlueRefused) {
  GlueProtoData inner;
  inner.glue_id = 1;
  inner.delegate = ProtocolEntry{"nexus-tcp", {}};
  GlueProtoData outer;
  outer.glue_id = 2;
  outer.delegate = ProtocolEntry{"glue", encode_glue_proto_data(inner)};

  ProtocolEntry entry{"glue", encode_glue_proto_data(outer)};
  try {
    ProtocolRegistry::instance().instantiate(entry);
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::protocol_bad_proto_data);
  }
}

TEST(Registry, MalformedGlueDataRefused) {
  ProtocolEntry entry{"glue", Bytes{1, 2, 3}};
  try {
    ProtocolRegistry::instance().instantiate(entry);
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::protocol_bad_proto_data);
  }
}

TEST(Registry, CustomProtocolPluggable) {
  ProtocolRegistry::instance().register_factory(
      "test-custom", [](const ProtocolEntry&) -> ProtocolPtr {
        return std::make_unique<RecordingProtocol>();
      });
  EXPECT_TRUE(ProtocolRegistry::instance().contains("test-custom"));
  const auto instance =
      ProtocolRegistry::instance().instantiate(ProtocolEntry{"test-custom", {}});
  EXPECT_EQ(instance->name(), "recording");
}

}  // namespace
}  // namespace ohpx::proto
