// Unit tests for the ORB core: object references, the location service,
// contexts (registration + the server pipeline, framed and direct,
// including hostile frames), reference building, stubs and global
// pointers.
#include <gtest/gtest.h>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/context.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/orb/global_pointer.hpp"
#include "ohpx/orb/location.hpp"
#include "ohpx/orb/object_ref.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::orb {
namespace {

using scenario::EchoServant;
using scenario::EchoStub;

class OrbFixture : public ::testing::Test {
 protected:
  OrbFixture()
      : lan_(topology_.add_lan("lan")),
        machine_(topology_.add_machine("box", lan_)),
        context_(Context::allocate_id(), machine_, topology_, location_) {}

  netsim::Topology topology_;
  LocationService location_;
  netsim::LanId lan_;
  netsim::MachineId machine_;
  Context context_;
};

// ---- object references --------------------------------------------------------

TEST_F(OrbFixture, ObjectRefSerializationRoundTrip) {
  const ObjectRef ref =
      RefBuilder(context_, std::make_shared<EchoServant>()).build();
  const ObjectRef back = ObjectRef::from_bytes(ref.to_bytes());
  EXPECT_EQ(back, ref);
  EXPECT_EQ(back.type_name(), "Echo");
  EXPECT_EQ(back.home().context_id, context_.id());
  EXPECT_EQ(back.home().endpoint, context_.endpoint_name());
}

TEST_F(OrbFixture, InvalidRefRejected) {
  ObjectRef invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW(ObjectRef::from_bytes(invalid.to_bytes()), ObjectError);
  EXPECT_THROW(ObjectRef::from_bytes(Bytes{1, 2, 3}), WireError);
}

TEST(AddressCodec, RoundTrip) {
  proto::ServerAddress address;
  address.context_id = 3;
  address.machine = 4;
  address.endpoint = "ctx/3";
  address.tcp_host = "127.0.0.1";
  address.tcp_port = 8080;
  address.epoch = 12;

  wire::Buffer buf;
  wire::Encoder enc(buf);
  serialize_address(enc, address);
  wire::Decoder dec(buf.view());
  const proto::ServerAddress back = deserialize_address(dec);
  EXPECT_EQ(back.context_id, 3u);
  EXPECT_EQ(back.machine, 4u);
  EXPECT_EQ(back.endpoint, "ctx/3");
  EXPECT_EQ(back.tcp_port, 8080);
  EXPECT_EQ(back.epoch, 12u);
}

// ---- location service -----------------------------------------------------------

TEST(LocationServiceTest, PublishResolveRemove) {
  LocationService location;
  EXPECT_FALSE(location.resolve(1).has_value());
  EXPECT_EQ(location.epoch_of(1), 0u);

  proto::ServerAddress address;
  address.context_id = 9;
  location.publish(1, address);
  ASSERT_TRUE(location.resolve(1).has_value());
  EXPECT_EQ(location.resolve(1)->context_id, 9u);
  EXPECT_EQ(location.epoch_of(1), 1u);
  EXPECT_EQ(location.size(), 1u);

  location.remove(1);
  EXPECT_FALSE(location.resolve(1).has_value());
}

TEST(LocationServiceTest, RepublishBumpsEpoch) {
  LocationService location;
  proto::ServerAddress address;
  location.publish(5, address);
  location.publish(5, address);
  location.publish(5, address);
  EXPECT_EQ(location.epoch_of(5), 3u);
}

// ---- context: registration --------------------------------------------------------

TEST_F(OrbFixture, ActivateRegistersAndPublishes) {
  auto servant = std::make_shared<EchoServant>();
  const ObjectId id = context_.activate(servant);
  EXPECT_TRUE(context_.hosts(id));
  EXPECT_EQ(context_.find_servant(id), servant);
  ASSERT_TRUE(location_.resolve(id).has_value());
  EXPECT_EQ(location_.resolve(id)->context_id, context_.id());

  context_.deactivate(id);
  EXPECT_FALSE(context_.hosts(id));
  EXPECT_FALSE(location_.resolve(id).has_value());
}

TEST_F(OrbFixture, ActivateNullRejected) {
  EXPECT_THROW(context_.activate(nullptr), ObjectError);
}

TEST_F(OrbFixture, UniqueObjectAndRequestIds) {
  const ObjectId a = context_.activate(std::make_shared<EchoServant>());
  const ObjectId b = context_.activate(std::make_shared<EchoServant>());
  EXPECT_NE(a, b);

  const auto r1 = context_.next_request_id();
  const auto r2 = context_.next_request_id();
  EXPECT_NE(r1, r2);
  // Context id is folded into the high bits.
  EXPECT_EQ(r1 >> 40, context_.id());
}

TEST_F(OrbFixture, HostedObjectsListed) {
  const ObjectId a = context_.activate(std::make_shared<EchoServant>());
  const ObjectId b = context_.activate(std::make_shared<EchoServant>());
  const auto hosted = context_.hosted_objects();
  EXPECT_EQ(hosted.size(), 2u);
  EXPECT_TRUE(std::count(hosted.begin(), hosted.end(), a) == 1);
  EXPECT_TRUE(std::count(hosted.begin(), hosted.end(), b) == 1);
}

// ---- context: server pipeline hostile inputs ----------------------------------------

wire::Buffer request_frame(ObjectId object_id, std::uint32_t method,
                           const wire::Buffer& payload,
                           std::uint16_t flags = 0) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.flags = flags;
  header.request_id = 1234;
  header.object_id = object_id;
  header.method_or_code = method;
  return wire::encode_frame(header, payload.view());
}

std::uint32_t error_code_of(const wire::Buffer& reply_frame) {
  BytesView body;
  const wire::MessageHeader header = wire::decode_frame(reply_frame.view(), body);
  EXPECT_EQ(header.type, wire::MessageType::error_reply);
  std::uint32_t code = 0;
  std::string message;
  wire::decode_error_body(body, code, message);
  return code;
}

TEST_F(OrbFixture, GarbageFrameYieldsErrorReply) {
  const wire::Buffer garbage(Bytes(64, 0x77));
  const wire::Buffer reply = context_.handle_frame(garbage.view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::wire_bad_magic));
}

TEST_F(OrbFixture, UnknownObjectYieldsObjectNotFound) {
  const wire::Buffer reply =
      context_.handle_frame(request_frame(99999, 1, wire::Buffer{}).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::object_not_found));
}

TEST_F(OrbFixture, MigratedObjectYieldsStaleReference) {
  const ObjectId id = context_.activate(std::make_shared<EchoServant>());
  // Simulate migration completed elsewhere: location points to another
  // context while this one no longer hosts the servant.
  proto::ServerAddress elsewhere;
  elsewhere.context_id = context_.id() + 1;
  location_.publish(id, elsewhere);
  context_.deactivate(id, /*forget_location=*/false);

  const wire::Buffer reply =
      context_.handle_frame(request_frame(id, 1, wire::Buffer{}).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::stale_reference));
}

TEST_F(OrbFixture, UnknownMethodYieldsMethodNotFound) {
  const ObjectId id = context_.activate(std::make_shared<EchoServant>());
  const wire::Buffer reply =
      context_.handle_frame(request_frame(id, 424242, wire::Buffer{}).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::method_not_found));
}

TEST(ServantDispatch, TruncatedArgumentsSurfaceAsWireErrors) {
  EchoServant servant;
  wire::Buffer args;
  wire::Encoder enc(args);
  wire::serialize(enc, std::vector<std::int32_t>{1, 2, 3});
  args.resize(args.size() - 2);  // the last element is cut short
  wire::Decoder in(args.view());
  wire::Buffer result;
  wire::Encoder out(result);
  EXPECT_THROW(servant.dispatch(EchoServant::kEcho, in, out), WireError);
}

TEST_F(OrbFixture, NonRequestFrameRejected) {
  wire::MessageHeader header;
  header.type = wire::MessageType::reply;
  header.object_id = 1;
  const wire::Buffer reply =
      context_.handle_frame(wire::encode_frame(header, {}).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::protocol_unknown));
}

TEST_F(OrbFixture, GlueFlagWithoutBindingRejected) {
  const ObjectId id = context_.activate(std::make_shared<EchoServant>());
  wire::Buffer payload;
  proto::prepend_glue_id(payload, 424242);  // no such binding
  const wire::Buffer reply = context_.handle_frame(
      request_frame(id, 1, payload, wire::kFlagGlueProcessed).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::capability_unknown));
}

TEST_F(OrbFixture, GlueBindingObjectMismatchRejected) {
  const ObjectId intended = context_.activate(std::make_shared<EchoServant>());
  const ObjectId other = context_.activate(std::make_shared<EchoServant>());
  const std::uint32_t glue_id =
      context_.register_glue(intended, cap::CapabilityChain{});

  // Present `other` with a glue id registered for `intended`: refused.
  wire::Buffer payload;
  proto::prepend_glue_id(payload, glue_id);
  const wire::Buffer reply = context_.handle_frame(
      request_frame(other, 1, payload, wire::kFlagGlueProcessed).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::capability_denied));
}

TEST_F(OrbFixture, CorruptGluePayloadRejectedByChain) {
  const ObjectId id = context_.activate(std::make_shared<EchoServant>());
  const std::uint32_t glue_id = context_.register_glue(
      id, cap::CapabilityChain({std::make_shared<cap::ChecksumCapability>()}));

  wire::Buffer payload(Bytes{1, 2, 3});  // not checksum-protected
  proto::prepend_glue_id(payload, glue_id);
  const wire::Buffer reply = context_.handle_frame(
      request_frame(id, 1, payload, wire::kFlagGlueProcessed).view());
  EXPECT_EQ(error_code_of(reply),
            static_cast<std::uint32_t>(ErrorCode::capability_bad_payload));
}

// ---- one server pipeline: dispatch() and handle_frame() ----------------

wire::MessageHeader request_to(ObjectId object_id, std::uint32_t method) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 4321;
  header.object_id = object_id;
  header.method_or_code = method;
  return header;
}

wire::Buffer echo_args(const std::vector<std::int32_t>& values) {
  wire::Buffer args;
  wire::Encoder enc(args);
  wire::serialize(enc, values);
  return args;
}

std::uint64_t server_requests() {
  return metrics::MetricsRegistry::global().counter(
      metrics::names::kServerRequests);
}

// Serves one request through both entry points of the server pipeline:
// the direct reply and the framed one must carry the same header and the
// same body bytes, and each entry point counts the request once.
wire::ReplyEnvelope serve_both_ways(Context& context,
                                    const wire::MessageHeader& header,
                                    const wire::Buffer& body) {
  const std::uint64_t before = server_requests();
  wire::ReplyEnvelope direct = context.dispatch(header, body.view());
  EXPECT_EQ(server_requests(), before + 1);
  const wire::Buffer reply_frame =
      context.handle_frame(wire::encode_frame(header, body.view()).view());
  EXPECT_EQ(server_requests(), before + 2);
  BytesView framed_body;
  const wire::MessageHeader framed =
      wire::decode_frame(reply_frame.view(), framed_body);
  EXPECT_EQ(direct.header, framed);
  EXPECT_EQ(direct.payload.bytes(),
            Bytes(framed_body.begin(), framed_body.end()));
  return direct;
}

ErrorCode error_code_of(const wire::ReplyEnvelope& reply) {
  EXPECT_EQ(reply.header.type, wire::MessageType::error_reply);
  std::uint32_t code = 0;
  std::string message;
  wire::decode_error_body(reply.payload.view(), code, message);
  EXPECT_EQ(code, reply.header.method_or_code);
  return static_cast<ErrorCode>(code);
}

TEST_F(OrbFixture, DispatchAndHandleFrameReplyAlike) {
  const ObjectId id = context_.activate(std::make_shared<EchoServant>());
  const std::vector<std::int32_t> values{1, -2, 3};

  wire::MessageHeader header = request_to(id, EchoServant::kEcho);
  header.flags |= wire::kFlagCorrelation;
  header.correlation_id = 77;
  const wire::ReplyEnvelope reply =
      serve_both_ways(context_, header, echo_args(values));
  EXPECT_EQ(reply.header.type, wire::MessageType::reply);
  EXPECT_EQ(reply.header.request_id, 4321u);
  EXPECT_EQ(reply.header.correlation_id, 77u);
  EXPECT_EQ(wire::decode_value<std::vector<std::int32_t>>(reply.payload.view()),
            values);

  wire::MessageHeader oneway = request_to(id, EchoServant::kEcho);
  oneway.type = wire::MessageType::oneway;
  const wire::ReplyEnvelope ack =
      serve_both_ways(context_, oneway, echo_args(values));
  EXPECT_EQ(ack.header.type, wire::MessageType::reply);
  EXPECT_TRUE(ack.payload.empty()) << "a oneway ack carries no result";
}

TEST_F(OrbFixture, DispatchAndHandleFrameRefuseAlike) {
  const ObjectId id = context_.activate(std::make_shared<EchoServant>());
  const wire::Buffer no_args;

  EXPECT_EQ(error_code_of(serve_both_ways(
                context_, request_to(99999, EchoServant::kPing), no_args)),
            ErrorCode::object_not_found);

  // The servant throws std::runtime_error("echo failed").
  EXPECT_EQ(error_code_of(serve_both_ways(
                context_, request_to(id, EchoServant::kFail), no_args)),
            ErrorCode::remote_application_error);

  // The caller's budget ran out before the request was served.
  wire::MessageHeader late = request_to(id, EchoServant::kPing);
  late.flags |= wire::kFlagDeadline;
  late.deadline_ns = resilience::now_ns();
  EXPECT_EQ(error_code_of(serve_both_ways(context_, late, no_args)),
            ErrorCode::deadline_exceeded);

  // A revoked glue binding, and one whose quota is spent.
  const std::uint32_t revoked =
      context_.register_glue(id, cap::CapabilityChain{});
  ASSERT_TRUE(context_.revoke_glue(revoked));
  const std::uint32_t spent = context_.register_glue(
      id, cap::CapabilityChain({std::make_shared<cap::QuotaCapability>(0)}));
  for (const auto& [glue_id, code] :
       {std::pair{revoked, ErrorCode::capability_unknown},
        std::pair{spent, ErrorCode::capability_exhausted}}) {
    wire::MessageHeader glued = request_to(id, EchoServant::kEcho);
    glued.flags |= wire::kFlagGlueProcessed;
    wire::Buffer body = echo_args({4, 5});
    proto::prepend_glue_id(body, glue_id);
    EXPECT_EQ(error_code_of(serve_both_ways(context_, glued, body)), code);
  }

  // The object migrated to another context: a stale reference.
  proto::ServerAddress elsewhere;
  elsewhere.context_id = context_.id() + 1;
  location_.publish(id, elsewhere);
  context_.deactivate(id, /*forget_location=*/false);
  EXPECT_EQ(error_code_of(serve_both_ways(
                context_, request_to(id, EchoServant::kPing), no_args)),
            ErrorCode::stale_reference);
}

// Pooled buffers one call draws from this thread's pool at steady state
// (reused + allocated: every acquire), over 1,000 calls.
template <typename Call>
std::uint64_t pooled_draws(Call&& call) {
  for (int i = 0; i < 100; ++i) call();
  const wire::BufferPool& pool = wire::BufferPool::local();
  const std::uint64_t before = pool.reused() + pool.allocated();
  for (int i = 0; i < 1000; ++i) call();
  return pool.reused() + pool.allocated() - before;
}

TEST_F(OrbFixture, ShmAndNexusEchoesDrawTwoPooledBuffers) {
  Context client(Context::allocate_id(), machine_, topology_, location_);
  const auto servant = std::make_shared<EchoServant>();
  GlobalPointer<EchoStub> shm(client,
                              RefBuilder(context_, servant).shm().build());
  GlobalPointer<EchoStub> nexus(client,
                                RefBuilder(context_, servant).nexus().build());
  const std::vector<std::int32_t> values(16, 7);

  // Each: the caller's arguments and the server's result, which comes
  // back as the reply.  nexus-tcp's wire is a model, so it adds no frame.
  EXPECT_EQ(pooled_draws([&] { EXPECT_EQ(shm->echo(values), values); }),
            2000u);
  EXPECT_EQ(pooled_draws([&] { EXPECT_EQ(nexus->echo(values), values); }),
            2000u);
  EXPECT_EQ(shm->last_protocol(), "shm");
  EXPECT_EQ(nexus->last_protocol(), "nexus-tcp");
}

// EchoStub with the call layer's cost ledger in reach for a oneway call.
class CostedEchoStub : public EchoStub {
 public:
  using EchoStub::EchoStub;
  void ping_oneway(CostLedger& ledger) {
    core().invoke_oneway(EchoServant::kPing, wire::Buffer(), &ledger);
  }
};

TEST_F(OrbFixture, NexusLedgerChargesTheFramesItNoLongerBuilds) {
  Context client(Context::allocate_id(), machine_, topology_, location_);
  const auto servant = std::make_shared<EchoServant>();
  GlobalPointer<CostedEchoStub> plain(
      client, RefBuilder(context_, servant).nexus().build());
  GlobalPointer<CostedEchoStub> glued(
      client,
      RefBuilder(context_, servant)
          .glue({std::make_shared<cap::ChecksumCapability>()}, "nexus-tcp")
          .build());

  // Watch what crosses the modeled wire: the request's header and body
  // and the reply, and the frames the framed exchange encoded for them.
  auto& registry = transport::EndpointRegistry::instance();
  const std::string& endpoint = context_.endpoint_name();
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

  const netsim::LinkSpec link = topology_.link_between(machine_, machine_);
  const auto expect_framed_charge = [&](const CostLedger& ledger,
                                        const char* call) {
    EXPECT_EQ(ledger.bytes_sent(), request_frame) << call;
    EXPECT_EQ(ledger.bytes_received(), reply_frame) << call;
    EXPECT_EQ(ledger.modeled(), link.transfer_time(request_frame) +
                                    link.transfer_time(reply_frame))
        << call;
  };

  CostLedger ping;
  EXPECT_EQ(plain->call_with_cost<std::uint64_t>(&ping, EchoServant::kPing),
            1u);
  EXPECT_EQ(plain->last_protocol(), "nexus-tcp");
  EXPECT_EQ(reply_frame, wire::kHeaderSize + 8u) << "the u64 ping count";
  expect_framed_charge(ping, "ping");

  CostLedger echo;
  const std::vector<std::int32_t> values(16, 7);
  EXPECT_EQ(plain->echo_with_cost(echo, values), values);
  expect_framed_charge(echo, "echo");

  CostLedger oneway;
  plain->ping_oneway(oneway);
  EXPECT_EQ(reply_frame, wire::kHeaderSize) << "the ack has no body";
  expect_framed_charge(oneway, "oneway");

  // Glued, traced and under a deadline: the header carries both
  // extensions, and the body the sealed arguments behind the glue id.
  trace::TraceSink::global().set_sampling(trace::Sampling::always);
  glued->set_deadline_budget(std::chrono::seconds(5));
  CostLedger glued_echo;
  EXPECT_EQ(glued->echo_with_cost(glued_echo, values), values);
  trace::TraceSink::global().set_sampling(trace::Sampling::off);
  trace::TraceSink::global().clear();
  EXPECT_EQ(glued->last_protocol(), "glue[checksum]->nexus-tcp");
  const std::uint16_t carried = wire::kFlagGlueProcessed |
                                wire::kFlagTraceContext | wire::kFlagDeadline;
  EXPECT_EQ(request_flags & carried, carried);
  expect_framed_charge(glued_echo, "glued echo");

  registry.bind(endpoint, serve);
}

// Echoes its argument bytes as they are, so a test picks the exact payload
// size the capability chain sees.
class RawEchoServant final : public Servant {
 public:
  static constexpr std::string_view kTypeName = "RawEcho";
  std::string_view type_name() const noexcept override { return kTypeName; }
  void dispatch(std::uint32_t method_id, wire::Decoder& in,
                wire::Encoder& out) override {
    (void)method_id;
    out.put_raw(in.get_raw(in.remaining()));
  }
};

class RawEchoStub : public ObjectStub {
 public:
  static constexpr std::string_view kTypeName = RawEchoServant::kTypeName;
  using ObjectStub::ObjectStub;
  wire::Buffer echo(wire::Buffer args) {
    return core().invoke_raw(1, std::move(args), nullptr);
  }
};

TEST_F(OrbFixture, GluedShmEchoRoundTripsEveryPayloadSize) {
  Context client(Context::allocate_id(), machine_, topology_, location_);
  const crypto::Key128 key = crypto::Key128::from_seed(0x5a11);
  const auto ref =
      RefBuilder(context_, std::make_shared<RawEchoServant>())
          .glue({std::make_shared<cap::AuthenticationCapability>(
                     key, "shm-test", cap::Scope::always),
                 std::make_shared<cap::EncryptionCapability>(
                     key, cap::Scope::always)},
                "shm")
          .build();
  GlobalPointer<RawEchoStub> gp(client, ref);
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 300000u}) {
    SCOPED_TRACE(size);
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    const wire::Buffer reply = gp->echo(wire::Buffer(payload));
    EXPECT_EQ(reply.bytes(), payload);
  }
  EXPECT_EQ(gp->last_protocol(),
            "glue[authentication,encryption]->shm");
}

TEST_F(OrbFixture, ShmCallAfterMigrationReachesTheNewContext) {
  Context client(Context::allocate_id(), machine_, topology_, location_);
  Context new_home(Context::allocate_id(), machine_, topology_, location_);
  const auto ref =
      RefBuilder(context_, std::make_shared<EchoServant>()).shm().build();
  GlobalPointer<EchoStub> gp(client, ref);
  EXPECT_EQ(gp->ping(), 1u);

  runtime::migrate_shared(ref.object_id(), context_, new_home);
  ASSERT_TRUE(new_home.hosts(ref.object_id()));
  ASSERT_FALSE(context_.hosts(ref.object_id()));

  // One request served: the call went to the new home first time, with no
  // stale-reference refusal from the old one and no retry.
  const std::uint64_t requests = server_requests();
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(server_requests(), requests + 1);
}

// ---- glue binding management ----------------------------------------------------------

TEST_F(OrbFixture, GlueBindingsTrackedPerObject) {
  const ObjectId a = context_.activate(std::make_shared<EchoServant>());
  const ObjectId b = context_.activate(std::make_shared<EchoServant>());
  const auto g1 = context_.register_glue(a, cap::CapabilityChain{});
  const auto g2 = context_.register_glue(a, cap::CapabilityChain{});
  const auto g3 = context_.register_glue(b, cap::CapabilityChain{});
  EXPECT_NE(g1, g2);

  EXPECT_EQ(context_.glue_bindings_of(a).size(), 2u);
  EXPECT_EQ(context_.glue_bindings_of(b).size(), 1u);
  EXPECT_NE(context_.find_glue(g3), nullptr);

  context_.remove_glue_of(a);
  EXPECT_TRUE(context_.glue_bindings_of(a).empty());
  EXPECT_EQ(context_.find_glue(g1), nullptr);
  EXPECT_NE(context_.find_glue(g3), nullptr);
}

// ---- RefBuilder --------------------------------------------------------------------------

TEST_F(OrbFixture, DefaultTableIsShmThenNexus) {
  const ObjectRef ref =
      RefBuilder(context_, std::make_shared<EchoServant>()).build();
  ASSERT_EQ(ref.table().size(), 2u);
  EXPECT_EQ(ref.table().at(0).name, "shm");
  EXPECT_EQ(ref.table().at(1).name, "nexus-tcp");
}

TEST_F(OrbFixture, GlueEntryCarriesDescriptors) {
  auto quota = std::make_shared<cap::QuotaCapability>(7);
  const ObjectRef ref = RefBuilder(context_, std::make_shared<EchoServant>())
                            .glue({quota})
                            .build();
  ASSERT_EQ(ref.table().size(), 1u);
  EXPECT_EQ(ref.table().at(0).name, "glue");
  const auto data = proto::decode_glue_proto_data(ref.table().at(0).proto_data);
  ASSERT_EQ(data.capabilities.size(), 1u);
  EXPECT_EQ(data.capabilities[0].kind, "quota");
  EXPECT_EQ(data.delegate.name, "nexus-tcp");
  // The instances passed in became the server-side chain.
  EXPECT_NE(context_.find_glue(data.glue_id), nullptr);
}

TEST_F(OrbFixture, MultipleRefsForOneObject) {
  auto servant = std::make_shared<EchoServant>();
  const ObjectRef full = RefBuilder(context_, servant).build();
  const ObjectRef metered =
      RefBuilder(context_, full.object_id())
          .glue({std::make_shared<cap::QuotaCapability>(1)})
          .build();
  EXPECT_EQ(full.object_id(), metered.object_id());
  EXPECT_NE(full.table(), metered.table());
}

TEST_F(OrbFixture, BuilderForMissingObjectRejected) {
  EXPECT_THROW(RefBuilder(context_, ObjectId{987654}), ObjectError);
}

// ---- stubs / global pointers ----------------------------------------------------------------

TEST_F(OrbFixture, UnboundStubThrows) {
  EchoStub unbound;
  EXPECT_FALSE(unbound.bound());
  EXPECT_THROW(unbound.ping(), ObjectError);
  EXPECT_THROW(unbound.ref(), ObjectError);
}

TEST_F(OrbFixture, StubCopiesShareState) {
  const ObjectRef ref =
      RefBuilder(context_, std::make_shared<EchoServant>()).build();
  EchoStub first(context_, ref);
  EchoStub second = first;  // copy shares the CallCore
  first.ping();
  EXPECT_EQ(second.last_protocol(), "shm");
}

TEST_F(OrbFixture, GlobalPointerTypeChecked) {
  const ObjectRef ref =
      RefBuilder(context_, std::make_shared<EchoServant>()).build();
  EXPECT_NO_THROW(GlobalPointer<EchoStub>(context_, ref));
  try {
    GlobalPointer<scenario::CounterStub> wrong(context_, ref);
    FAIL();
  } catch (const ObjectError& e) {
    EXPECT_EQ(e.code(), ErrorCode::type_mismatch);
  }
}

TEST_F(OrbFixture, GlobalPointerSerializeRebind) {
  const ObjectRef ref =
      RefBuilder(context_, std::make_shared<EchoServant>()).build();
  GlobalPointer<EchoStub> gp(context_, ref);
  const Bytes raw = gp.to_bytes();
  auto rebound = GlobalPointer<EchoStub>::from_bytes(context_, raw);
  EXPECT_EQ(rebound->reverse("xy"), "yx");
}

TEST_F(OrbFixture, EmptyTableRejectedAtBind) {
  ObjectRef ref(1234, "Echo", context_.current_address(), proto::ProtoTable{});
  EXPECT_THROW(EchoStub(context_, ref), ProtocolError);
}

TEST_F(OrbFixture, ContextDestructionUnbindsEndpoint) {
  std::string endpoint;
  {
    Context temporary(Context::allocate_id(), machine_, topology_, location_);
    endpoint = temporary.endpoint_name();
    EXPECT_NE(transport::EndpointRegistry::instance().find(endpoint), nullptr);
  }
  EXPECT_EQ(transport::EndpointRegistry::instance().find(endpoint), nullptr);
}

// ---- references minted in another world ------------------------------------

// Two worlds in one process stand for two processes: each numbers its
// machines from 0, and a world's ids and endpoint names mean nothing in
// the other, so a reference minted in `home_` and used in `here_` may
// name ids `here_` uses too.
class ForeignRefTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (runtime::World* world : {&home_, &here_}) {
      machine_ = world->add_machine("box", world->add_lan("lan"));
    }
    remote_ctx_ = &home_.create_context(machine_);
    remote_ctx_->enable_tcp();
    local_ctx_ = &here_.create_context(machine_);
  }

  runtime::World home_;  // mints the references
  runtime::World here_;  // uses them
  netsim::MachineId machine_{};
  Context* remote_ctx_ = nullptr;
  Context* local_ctx_ = nullptr;
};

TEST_F(ForeignRefTest, ForeignRefDialsItsHomeNotALocalNamesake) {
  constexpr ObjectId kShared = 4242;
  const auto remote = std::make_shared<EchoServant>();
  remote_ctx_->activate_with_id(kShared, remote);
  const ObjectRef ref = RefBuilder(*remote_ctx_, kShared).tcp().build();
  // This world hosts an object under the same id, over TCP as well.
  const auto local = std::make_shared<EchoServant>();
  local_ctx_->enable_tcp();
  local_ctx_->activate_with_id(kShared, local);

  GlobalPointer<EchoStub> gp(*local_ctx_, ref);
  for (int i = 0; i < 5; ++i) gp->ping();
  EXPECT_EQ(remote->pings(), 5u);
  EXPECT_EQ(local->pings(), 0u) << "the local namesake was called";
}

TEST_F(ForeignRefTest, ForeignRefIsPlacedOnNoMachineOfThisWorld) {
  auto auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_seed(0xf0e1), "foreign", cap::Scope::cross_lan);
  const ObjectRef ref =
      RefBuilder(*remote_ctx_, std::make_shared<EchoServant>())
          .glue({auth}, "tcp")
          .shm()
          .tcp()
          .build();
  ASSERT_EQ(ref.home().machine, local_ctx_->machine());

  // The shared machine id is a coincidence of two counters: the call
  // must not take shm into this process's namesake endpoint, and the
  // cross-LAN authentication applies to a server placed somewhere else.
  GlobalPointer<EchoStub> gp(*local_ctx_, ref);
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->last_protocol(), "glue[authentication]->tcp");
}

}  // namespace
}  // namespace ohpx::orb
