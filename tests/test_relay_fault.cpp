// Tests for the relay protocol (gateway traversal) and the fault-injection
// capability, including their combination with group-pointer failover.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>

#include "ohpx/capability/builtin/fault.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/hpcxx/group_pointer.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/global_pointer.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/relay.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/wire/buffer_pool.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;
using scenario::EchoStub;

class RelayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    m_client_ = world_.add_machine("client", lan);
    m_gateway_ = world_.add_machine("gateway", lan);
    m_server_ = world_.add_machine("server", lan);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
  }

  runtime::World world_;
  netsim::MachineId m_client_{}, m_gateway_{}, m_server_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
};

TEST_F(RelayFixture, CallsTraverseTheGateway) {
  proto::RelayForwarder gateway("gw/main");

  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay", proto::RelayProtocol::make_proto_data("gw/main")})
                 .build();
  client_ctx_->pool().enable("relay");

  EchoPointer gp(*client_ctx_, ref);
  EXPECT_EQ(gp->reverse("gw"), "wg");
  EXPECT_EQ(gp->last_protocol(), "relay[gw/main]");
  EXPECT_EQ(gateway.forwarded(), 1u);
}

// Pool draws (reused + allocated) the calling thread makes in `calls`
// echo calls through `gp`.
std::uint64_t pool_draws(EchoPointer& gp, int calls) {
  const std::vector<std::int32_t> payload(64, 7);
  const auto& pool = wire::BufferPool::local();
  const std::uint64_t before = pool.reused() + pool.allocated();
  for (int i = 0; i < calls; ++i) EXPECT_EQ(gp->echo(payload), payload);
  return pool.reused() + pool.allocated() - before;
}

TEST_F(RelayFixture, RelayedFramesComeFromTheBufferPool) {
  proto::RelayForwarder gateway("gw/pooled");
  auto relayed = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                     .custom(proto::ProtocolEntry{
                         "relay",
                         proto::RelayProtocol::make_proto_data("gw/pooled")})
                     .build();
  client_ctx_->pool().enable("relay");
  EchoPointer via_gateway(*client_ctx_, relayed);
  constexpr int kCalls = 100;
  (void)pool_draws(via_gateway, 20);  // warm-up

  // After warm-up no relayed call allocates a pooled buffer...
  const std::uint64_t allocated = wire::BufferPool::global_stats().allocated;
  const std::uint64_t relayed_draws = pool_draws(via_gateway, kCalls);
  EXPECT_EQ(wire::BufferPool::global_stats().allocated, allocated);
  // ...and the relay's envelope is a pool buffer too, three per call: the
  // caller's arguments, its envelope (the request body after the target's
  // name) and the server's result, which comes back as the reply.
  EXPECT_EQ(relayed_draws, 3u * kCalls);
  EXPECT_EQ(gateway.forwarded(), 20u + kCalls);
}

// EchoStub with the call layer's cost ledger in reach for a oneway call.
class CostedEchoStub : public EchoStub {
 public:
  using EchoStub::EchoStub;
  void ping_oneway(CostLedger& ledger) {
    core().invoke_oneway(EchoServant::kPing, wire::Buffer(), &ledger);
  }
};

TEST_F(RelayFixture, RelayLedgerChargesTheFramesItNoLongerBuilds) {
  proto::RelayForwarder gateway("gw/ledger");
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay", proto::RelayProtocol::make_proto_data("gw/ledger")})
                 .build();
  client_ctx_->pool().enable("relay");
  orb::GlobalPointer<CostedEchoStub> gp(*client_ctx_, ref);

  // Watch what reaches the server: the request's header and body and the
  // reply, and the frames a framed exchange would encode for them.
  auto& registry = transport::EndpointRegistry::instance();
  const std::string& endpoint = server_ctx_->endpoint_name();
  const transport::RequestHandler serve = *registry.find(endpoint);
  std::size_t request_frame = 0;
  std::size_t reply_frame = 0;
  std::uint16_t request_flags = 0;
  registry.bind(endpoint, [&](const wire::MessageHeader& header,
                              BytesView body) {
    wire::ReplyEnvelope reply = serve(header, body);
    request_frame = wire::encode_frame(header, body).size();
    reply_frame =
        wire::encode_frame(reply.header, reply.payload.view()).size();
    request_flags = header.flags;
    return reply;
  });

  // Sent: the envelope a framed relay carried, the target's name (a u32
  // length and its bytes) and then the request frame.  Received: the
  // reply frame.
  const auto expect_framed_charge = [&](const CostLedger& ledger,
                                        const char* call) {
    EXPECT_EQ(ledger.bytes_sent(), 4 + endpoint.size() + request_frame)
        << call;
    EXPECT_EQ(ledger.bytes_received(), reply_frame) << call;
  };

  CostLedger ping;
  EXPECT_EQ(gp->call_with_cost<std::uint64_t>(&ping, EchoServant::kPing), 1u);
  EXPECT_EQ(gp->last_protocol(), "relay[gw/ledger]");
  EXPECT_EQ(request_frame, wire::kHeaderSize) << "a ping has no arguments";
  EXPECT_EQ(reply_frame, wire::kHeaderSize + 8u) << "the u64 ping count";
  expect_framed_charge(ping, "ping");

  CostLedger echo;
  const std::vector<std::int32_t> values(16, 7);
  EXPECT_EQ(gp->echo_with_cost(echo, values), values);
  EXPECT_EQ(reply_frame, wire::kHeaderSize + 4u + 64u) << "16 int32";
  expect_framed_charge(echo, "echo");

  CostLedger oneway;
  gp->ping_oneway(oneway);
  EXPECT_EQ(reply_frame, wire::kHeaderSize) << "the ack has no body";
  expect_framed_charge(oneway, "oneway");

  gp->set_deadline_budget(std::chrono::seconds(5));
  CostLedger deadline;
  EXPECT_EQ(gp->echo_with_cost(deadline, values), values);
  EXPECT_EQ(request_flags & wire::kFlagDeadline, wire::kFlagDeadline);
  EXPECT_EQ(request_frame, wire::kHeaderSize + wire::kDeadlineExtensionSize +
                               4u + 64u);
  expect_framed_charge(deadline, "echo under a deadline");
  EXPECT_EQ(gateway.forwarded(), 4u);

  registry.bind(endpoint, serve);
}

// A request for the echo servant's ping count, as the gateway receives it.
wire::MessageHeader ping_request(const orb::ObjectRef& ref) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 1;
  header.object_id = ref.object_id();
  header.method_or_code = EchoServant::kPing;
  return header;
}

TEST_F(RelayFixture, ForwarderRefusesABodyThatIsNotAnEnvelope) {
  proto::RelayForwarder gateway("gw/malformed");
  const auto servant = std::make_shared<EchoServant>();
  const auto ref = orb::RefBuilder(*server_ctx_, servant).nexus().build();

  // Empty, and a name whose length runs past the end of the body.
  wire::Buffer past_end;
  wire::Encoder enc(past_end);
  enc.put_u32(static_cast<std::uint32_t>(
      server_ctx_->endpoint_name().size() + 1));
  enc.put_raw(bytes_of(server_ctx_->endpoint_name()));
  for (const wire::Buffer& body : {wire::Buffer{}, past_end}) {
    CostLedger ledger;
    try {
      (void)transport::dispatch(
          transport::EndpointRegistry::instance().find("gw/malformed"),
          "gw/malformed", ping_request(ref), body.view(), ledger);
      ADD_FAILURE() << "a " << body.size()
                    << "-byte body is not an envelope";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), ErrorCode::wire_truncated);
    }
  }
  EXPECT_EQ(gateway.forwarded(), 0u);
  EXPECT_EQ(servant->pings(), 0u) << "no servant was reached";
}

TEST_F(RelayFixture, ForwarderFailsAnEnvelopeNamingNoEndpoint) {
  proto::RelayForwarder gateway("gw/nowhere");
  const auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                       .nexus()
                       .build();
  wire::Buffer envelope;
  wire::Encoder(envelope).put_string("ctx/no-such-endpoint");
  CostLedger ledger;
  try {
    (void)transport::dispatch(
        transport::EndpointRegistry::instance().find("gw/nowhere"),
        "gw/nowhere", ping_request(ref), envelope.view(), ledger);
    FAIL() << "the envelope names no bound endpoint";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_unknown_endpoint);
  }
}

TEST_F(RelayFixture, RelayFollowsMigration) {
  proto::RelayForwarder gateway("gw/mig");
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay", proto::RelayProtocol::make_proto_data("gw/mig")})
                 .build();
  client_ctx_->pool().enable("relay");
  EchoPointer gp(*client_ctx_, ref);
  EXPECT_EQ(gp->ping(), 1u);

  // The relay forwards to the *current* endpoint: after migration the
  // envelope targets the new context.
  orb::Context& elsewhere = world_.create_context(m_gateway_);
  runtime::migrate_shared(ref.object_id(), *server_ctx_, elsewhere);
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(gateway.forwarded(), 2u);
}

TEST_F(RelayFixture, GatewayDownMakesRelayInapplicable) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay", proto::RelayProtocol::make_proto_data("gw/gone")})
                 .nexus()
                 .build();
  client_ctx_->pool().enable("relay");
  EchoPointer gp(*client_ctx_, ref);

  // No forwarder bound: the relay entry is skipped, nexus carries the call.
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");

  // Bring the gateway up: the preferred relay entry takes over.
  proto::RelayForwarder gateway("gw/gone");
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(gp->last_protocol(), "relay[gw/gone]");
}

std::uint64_t counter(const char* name) {
  return metrics::MetricsRegistry::global().counter(name);
}

TEST_F(RelayFixture, RelayedCallsHitTheSelectionCache) {
  proto::RelayForwarder gateway("gw/memo");
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay", proto::RelayProtocol::make_proto_data("gw/memo")})
                 .build();
  client_ctx_->pool().enable("relay");
  EchoPointer gp(*client_ctx_, ref);

  const std::uint64_t hits = counter(metrics::names::kRmiSelectCacheHit);
  const std::uint64_t misses = counter(metrics::names::kRmiSelectCacheMiss);
  constexpr std::uint64_t kCalls = 10;
  for (std::uint64_t i = 1; i <= kCalls; ++i) EXPECT_EQ(gp->ping(), i);
  EXPECT_EQ(counter(metrics::names::kRmiSelectCacheMiss) - misses, 1u);
  EXPECT_EQ(counter(metrics::names::kRmiSelectCacheHit) - hits, kCalls - 1)
      << "a relayed selection is memoized like any other";
  EXPECT_EQ(gp->last_protocol(), "relay[gw/memo]");
  EXPECT_EQ(gateway.forwarded(), kCalls);
}

TEST_F(RelayFixture, ForwarderTeardownReselectsWithoutAFailedAttempt) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay", proto::RelayProtocol::make_proto_data("gw/flap")})
                 .nexus()
                 .build();
  client_ctx_->pool().enable("relay");
  std::optional<proto::RelayForwarder> gateway(std::in_place, "gw/flap");
  EchoPointer gp(*client_ctx_, ref);
  EXPECT_EQ(gp->ping(), 1u);
  const std::uint64_t hits = counter(metrics::names::kRmiSelectCacheHit);
  EXPECT_EQ(gp->ping(), 2u);
  ASSERT_EQ(counter(metrics::names::kRmiSelectCacheHit) - hits, 1u);
  ASSERT_EQ(gp->last_protocol(), "relay[gw/flap]");

  // Tearing the gateway down unbinds its name: the memoized relay
  // selection is stale before any call is sent through it.
  const std::uint64_t retries = counter(metrics::names::kRmiRetries);
  gateway.reset();
  EXPECT_EQ(gp->ping(), 3u);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
  EXPECT_EQ(counter(metrics::names::kRmiRetries), retries)
      << "no attempt went to the torn-down gateway";

  // And bringing it back makes relay applicable again on the next call.
  gateway.emplace("gw/flap");
  EXPECT_EQ(gp->ping(), 4u);
  EXPECT_EQ(gp->last_protocol(), "relay[gw/flap]");
  EXPECT_EQ(gateway->forwarded(), 1u);
  EXPECT_EQ(counter(metrics::names::kRmiRetries), retries);
}

TEST_F(RelayFixture, EmptyGatewayNameRejected) {
  EXPECT_THROW(proto::RelayProtocol(""), ProtocolError);
}

// ---- fault capability ------------------------------------------------------------

TEST(FaultCapabilityTest, RefusesEveryNth) {
  cap::FaultCapability fault(3);
  cap::CallContext call;
  call.direction = cap::Direction::request;
  int refused = 0;
  for (int i = 0; i < 9; ++i) {
    try {
      fault.admit(call);
    } catch (const CapabilityDenied&) {
      ++refused;
    }
  }
  EXPECT_EQ(refused, 3);
  EXPECT_EQ(fault.refused(), 3u);
  EXPECT_EQ(fault.admitted(), 6u);
}

TEST(FaultCapabilityTest, ZeroRejected) {
  EXPECT_THROW(cap::FaultCapability(0), CapabilityDenied);
}

TEST(FaultCapabilityTest, DescriptorRoundTrip) {
  cap::FaultCapability fault(7);
  const auto copy =
      cap::CapabilityRegistry::instance().instantiate(fault.descriptor());
  EXPECT_EQ(copy->kind(), "fault");
}

TEST_F(RelayFixture, FaultCapabilityDrivesGroupFailover) {
  // Replica 0 fails every 2nd request; any() transparently retries on
  // replica 1, so the caller sees no failures at all.
  auto flaky_servant = std::make_shared<EchoServant>();
  auto stable_servant = std::make_shared<EchoServant>();
  auto flaky = orb::RefBuilder(*server_ctx_, flaky_servant)
                   .glue({std::make_shared<cap::FaultCapability>(2)})
                   .build();
  auto stable = orb::RefBuilder(*server_ctx_, stable_servant).build();

  hpcxx::GroupPointer<EchoStub> group(*client_ctx_, {flaky, stable});
  for (int i = 0; i < 10; ++i) {
    EXPECT_NO_THROW(group.any<std::uint64_t>(
        [](EchoStub& stub) { return stub.ping(); }));
  }
  // The flaky replica served some, the stable one absorbed the faults.
  EXPECT_GT(flaky_servant->pings(), 0u);
  EXPECT_GT(stable_servant->pings(), 0u);
  EXPECT_EQ(flaky_servant->pings() + stable_servant->pings(), 10u);
}

}  // namespace
}  // namespace ohpx
