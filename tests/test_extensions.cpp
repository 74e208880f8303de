// Tests for the extension features beyond the paper's minimum:
// asynchronous invocation (one pipeline for every bearer, glue included),
// capability revocation, TCP-enabled contexts advertising their listener,
// and multi-threaded client stress over a capability chain.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx {
namespace {

using scenario::CounterPointer;
using scenario::CounterServant;
using scenario::EchoPointer;
using scenario::EchoServant;
using scenario::EchoStub;

class ExtensionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    m_client_ = world_.add_machine("client", lan);
    m_server_ = world_.add_machine("server", lan);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
  }

  runtime::World world_;
  netsim::MachineId m_client_{}, m_server_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
};

// ---- asynchronous invocation ------------------------------------------------

TEST_F(ExtensionFixture, AsyncCallDeliversResult) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoStub stub(*client_ctx_, ref);

  auto future = stub.call_async<std::string>(EchoServant::kReverse,
                                             std::string("stressed"));
  EXPECT_EQ(future.get(), "desserts");
}

TEST_F(ExtensionFixture, AsyncCallsOverlap) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<CounterServant>()).build();
  scenario::CounterStub stub(*client_ctx_, ref);

  std::vector<ohpx::Future<std::int64_t>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(stub.call_async<std::int64_t>(CounterServant::kAdd,
                                                    std::int64_t{1}));
  }
  std::int64_t max_seen = 0;
  for (auto& future : futures) max_seen = std::max(max_seen, future.get());
  EXPECT_EQ(max_seen, 16);
  EXPECT_EQ(stub.get(), 16);
}

TEST_F(ExtensionFixture, AsyncCallPropagatesRemoteException) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoStub stub(*client_ctx_, ref);
  auto future = stub.call_async<void>(EchoServant::kFail);
  EXPECT_THROW(future.get(), RemoteError);
}

TEST_F(ExtensionFixture, AsyncVoidCall) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<CounterServant>()).build();
  scenario::CounterStub stub(*client_ctx_, ref);
  stub.call_async<void>(CounterServant::kSet, std::int64_t{5}).get();
  EXPECT_EQ(stub.get(), 5);
}

// ---- one async pipeline, over the reactor and over in-process bearers ------

// Counts request-direction process() calls on the thread the test names
// and on any other.  The server's chain calls process() too, for the
// reply, on its own thread, so replies are not counted.
std::atomic<std::thread::id> g_probe_thread{};
std::atomic<int> g_probe_on_thread{0};
std::atomic<int> g_probe_elsewhere{0};

class ThreadProbeCapability final : public cap::Capability {
 public:
  static constexpr const char* kKind = "test-thread-probe";
  std::string_view kind() const noexcept override { return kKind; }
  void process(wire::Buffer&, const cap::CallContext& call) override {
    if (call.direction != cap::Direction::request) return;
    if (std::this_thread::get_id() == g_probe_thread.load()) {
      ++g_probe_on_thread;
    } else {
      ++g_probe_elsewhere;
    }
  }
  void unprocess(wire::Buffer&, const cap::CallContext&) override {}
  cap::CapabilityDescriptor descriptor() const override {
    return cap::CapabilityDescriptor{kKind, {}};
  }
};

// The parameter names the bearer: "tcp" (the reactor) or "nexus-tcp" (in
// process, so every future has settled when call_async returns).
class AsyncPipelineTest : public ExtensionFixture,
                          public ::testing::WithParamInterface<std::string> {
 protected:
  void SetUp() override {
    ExtensionFixture::SetUp();
    server_ctx_->enable_tcp();
  }

  // The bearer alone, or glue over it.
  orb::ObjectRef bearer_ref() {
    return orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
        .custom(proto::ProtocolEntry{GetParam(), {}})
        .build();
  }
  orb::ObjectRef glue_ref(std::vector<cap::CapabilityPtr> capabilities) {
    return orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
        .glue(std::move(capabilities), GetParam())
        .build();
  }
};

TEST_P(AsyncPipelineTest, OverlappingGlueEchoesReturnTheirOwnPayloads) {
  const auto key = crypto::Key128::from_seed(0xa5c);
  EchoStub stub(*client_ctx_,
                glue_ref({std::make_shared<cap::EncryptionCapability>(key),
                          std::make_shared<cap::AuthenticationCapability>(
                              key, "async", cap::Scope::always)}));

  constexpr int kCalls = 64;
  std::vector<std::vector<std::int32_t>> sent;
  std::vector<ohpx::Future<std::vector<std::int32_t>>> futures;
  for (int i = 0; i < kCalls; ++i) {
    std::vector<std::int32_t> values(256);
    for (std::size_t j = 0; j < values.size(); ++j) {
      values[j] = i * 1000 + static_cast<std::int32_t>(j);
    }
    futures.push_back(stub.call_async<std::vector<std::int32_t>>(
        EchoServant::kEcho, values));
    sent.push_back(std::move(values));
  }
  for (int i = 0; i < kCalls; ++i) {
    const auto index = static_cast<std::size_t>(i);
    EXPECT_EQ(futures[index].get(), sent[index]) << "call " << i;
  }
  EXPECT_EQ(stub.last_protocol(),
            "glue[encryption,authentication]->" + GetParam());
}

TEST_P(AsyncPipelineTest, GlueRequestChainRunsOnTheCallingThread) {
  cap::CapabilityRegistry::instance().register_factory(
      ThreadProbeCapability::kKind, [](const cap::CapabilityDescriptor&) {
        return std::make_shared<ThreadProbeCapability>();
      });
  EchoStub stub(*client_ctx_,
                glue_ref({std::make_shared<ThreadProbeCapability>()}));
  g_probe_thread = std::this_thread::get_id();
  g_probe_on_thread = 0;
  g_probe_elsewhere = 0;

  constexpr int kCalls = 8;
  std::vector<ohpx::Future<std::uint64_t>> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(stub.call_async<std::uint64_t>(EchoServant::kPing));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(g_probe_on_thread.load(), kCalls);
  EXPECT_EQ(g_probe_elsewhere.load(), 0);
}

TEST_P(AsyncPipelineTest, AsyncErrorReplyIsCountedAndRecorded) {
  EchoStub stub(*client_ctx_, bearer_ref());
  auto* errors = metrics::MetricsRegistry::global().counter_handle(
      metrics::names::rmi_error(
          to_string(ErrorCode::remote_application_error)));
  auto& recorder = introspect::FlightRecorder::global();
  recorder.clear();
  const std::uint64_t before = errors->load();

  auto future = stub.call_async<void>(EchoServant::kFail);
  EXPECT_THROW(future.get(), RemoteError);

  EXPECT_EQ(errors->load(), before + 1);
  std::size_t error_records = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.kind == introspect::EventKind::error &&
        record.code == static_cast<std::uint16_t>(
                           ErrorCode::remote_application_error)) {
      ++error_records;
    }
  }
  EXPECT_EQ(error_records, 1u);
  recorder.clear();
}

TEST_P(AsyncPipelineTest, ClientSideRefusalIsThrownByCallAsync) {
  EchoStub stub(*client_ctx_,
                glue_ref({std::make_shared<cap::QuotaCapability>(1)}));
  EXPECT_EQ(stub.call_async<std::uint64_t>(EchoServant::kPing).get(), 1u);
  EXPECT_THROW(stub.call_async<std::uint64_t>(EchoServant::kPing),
               CapabilityDenied);
}

INSTANTIATE_TEST_SUITE_P(
    Bearers, AsyncPipelineTest, ::testing::Values("tcp", "nexus-tcp"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param == "tcp" ? "Tcp" : "NexusTcp";
    });

// ---- oneway invocation ----------------------------------------------------------

TEST_F(ExtensionFixture, OnewayDeliversWithoutResult) {
  auto servant = std::make_shared<CounterServant>();
  auto ref = orb::RefBuilder(*server_ctx_, servant).build();
  scenario::CounterStub stub(*client_ctx_, ref);

  stub.call_oneway(CounterServant::kAdd, std::int64_t{5});
  stub.call_oneway(CounterServant::kAdd, std::int64_t{7});
  EXPECT_EQ(servant->value(), 12);  // handlers ran
  EXPECT_EQ(stub.get(), 12);        // regular calls still work
}

TEST_F(ExtensionFixture, OnewaySwallowsApplicationErrors) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoStub stub(*client_ctx_, ref);
  // kFail throws server-side; oneway drops it.
  EXPECT_NO_THROW(stub.call_oneway(EchoServant::kFail));
  // Unknown method ids are application-level too: dropped.
  EXPECT_NO_THROW(stub.call_oneway(99999u));
}

TEST_F(ExtensionFixture, OnewayStillEnforcesCapabilities) {
  auto quota = std::make_shared<cap::QuotaCapability>(1);
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({quota})
                 .build();
  EchoStub stub(*client_ctx_, ref);
  EXPECT_NO_THROW(stub.call_oneway(EchoServant::kPing));
  // Infrastructure-level refusals surface even for oneway requests.
  EXPECT_THROW(stub.call_oneway(EchoServant::kPing), CapabilityDenied);
}

TEST_F(ExtensionFixture, OnewayToMissingObjectSurfaces) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoStub stub(*client_ctx_, ref);
  server_ctx_->deactivate(ref.object_id());
  EXPECT_THROW(stub.call_oneway(EchoServant::kPing), ObjectError);
}

// ---- revocation ---------------------------------------------------------------

TEST_F(ExtensionFixture, RevokedGlueRefusesFurtherCalls) {
  auto quota = std::make_shared<cap::QuotaCapability>(100);
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({quota})
                 .build();
  const auto data = proto::decode_glue_proto_data(ref.table().at(0).proto_data);

  EchoPointer gp(*client_ctx_, ref);
  EXPECT_EQ(gp->ping(), 1u);

  ASSERT_TRUE(server_ctx_->revoke_glue(data.glue_id));
  try {
    gp->ping();
    FAIL() << "expected revocation to refuse the call";
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_unknown);
  }
  // Revoking twice reports absence.
  EXPECT_FALSE(server_ctx_->revoke_glue(data.glue_id));
}

TEST_F(ExtensionFixture, RevocationIsPerReference) {
  auto servant = std::make_shared<EchoServant>();
  auto ref_a = orb::RefBuilder(*server_ctx_, servant)
                   .glue({std::make_shared<cap::QuotaCapability>(100)})
                   .build();
  auto ref_b = orb::RefBuilder(*server_ctx_, ref_a.object_id())
                   .glue({std::make_shared<cap::QuotaCapability>(100)})
                   .build();

  EchoPointer client_a(*client_ctx_, ref_a);
  EchoPointer client_b(*client_ctx_, ref_b);
  client_a->ping();
  client_b->ping();

  const auto data_a = proto::decode_glue_proto_data(ref_a.table().at(0).proto_data);
  server_ctx_->revoke_glue(data_a.glue_id);

  EXPECT_THROW(client_a->ping(), CapabilityDenied);
  EXPECT_EQ(client_b->ping(), 3u);  // other reference unaffected
}

// ---- TCP-enabled context address advertising -------------------------------------

TEST_F(ExtensionFixture, EnableTcpRepublishesAddress) {
  const auto id = server_ctx_->activate(std::make_shared<EchoServant>());
  auto before = world_.location().resolve(id);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->tcp_port, 0);

  server_ctx_->enable_tcp();
  auto after = world_.location().resolve(id);
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->tcp_port, 0);
  EXPECT_EQ(after->tcp_host, "127.0.0.1");
  EXPECT_GT(after->epoch, before->epoch);
}

// ---- multi-threaded clients over one capability chain -----------------------------

TEST_F(ExtensionFixture, ConcurrentClientsThroughGlueChain) {
  const auto key = crypto::Key128::from_seed(0x5eed);
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({std::make_shared<cap::EncryptionCapability>(key),
                        std::make_shared<cap::AuthenticationCapability>(
                            key, "stress", cap::Scope::always)})
                 .build();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      try {
        // Each thread gets its own stub (own client chain copies) bound in
        // the shared client context.
        EchoPointer gp(*client_ctx_, ref);
        for (int i = 0; i < 50; ++i) {
          std::vector<std::int32_t> values(64, t * 1000 + i);
          if (gp->echo(values) != values) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ExtensionFixture, SharedStubAcrossThreads) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<CounterServant>()).build();
  scenario::CounterStub stub(*client_ctx_, ref);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stub] {
      for (int i = 0; i < 100; ++i) stub.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(stub.get(), 400);
}

// ---- foreign references (separate worlds, as across OS processes) -----------------

TEST_F(ExtensionFixture, ForeignReferenceWorksOverTcp) {
  // World A mints a TCP reference; world B (separate topology + location
  // service — exactly a second process's view) rebinds it.  Placement is
  // unresolvable there, so same-machine protocols stay out and the tcp
  // protocol carries the calls.
  server_ctx_->enable_tcp();
  auto quota = std::make_shared<cap::QuotaCapability>(2);
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({quota}, "tcp")
                 .tcp()
                 .build();
  const Bytes wire_form = ref.to_bytes();

  runtime::World other_world;
  const auto other_lan = other_world.add_lan("other");
  orb::Context& foreign_ctx =
      other_world.create_context(other_world.add_machine("foreign", other_lan));

  auto gp = EchoPointer::from_bytes(foreign_ctx, wire_form);
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->last_protocol(), "glue[quota]->tcp");
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_THROW(gp->ping(), CapabilityDenied);  // quota crossed worlds
}

// ---- custom protocol end-to-end ----------------------------------------------------

TEST_F(ExtensionFixture, CustomProtocolParticipatesInSelection) {
  // A user protocol that routes through the in-process registry but tags
  // itself differently — the paper's "custom protocols via a standard
  // interface" (§3.2).  Registered once, then usable from OR tables.
  class LocalOnlyProtocol final : public proto::Protocol {
   public:
    std::string_view name() const noexcept override { return "local-only"; }
    bool applicable(const proto::CallTarget& target) const override {
      return target.placement.same_machine();
    }
    proto::ReplyMessage invoke(const wire::MessageHeader& header,
                               const wire::Buffer& payload,
                               const proto::CallTarget& target,
                               CostLedger& ledger) override {
      proto::ReplyMessage reply =
          transport::dispatch(target.handler, target.address.endpoint, header,
                              payload.view(), ledger);
      proto::check_reply(reply.header, header.request_id);
      return reply;
    }
  };
  proto::ProtocolRegistry::instance().register_factory(
      "local-only", [](const proto::ProtocolEntry&) -> proto::ProtocolPtr {
        return std::make_unique<LocalOnlyProtocol>();
      });

  orb::Context& local_server = world_.create_context(m_client_);
  auto ref = orb::RefBuilder(local_server, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{"local-only", {}})
                 .nexus()
                 .build();

  client_ctx_->pool().enable("local-only");
  EchoPointer gp(*client_ctx_, ref);
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->last_protocol(), "local-only");

  // After migration off-machine the custom protocol stops applying and
  // selection falls through to nexus.
  runtime::migrate_shared(ref.object_id(), local_server, *server_ctx_);
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
}

}  // namespace
}  // namespace ohpx
