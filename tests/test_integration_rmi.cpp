// End-to-end RMI integration tests: every protocol, capability chains,
// error propagation, reference exchange, migration, and the Figure 4
// adaptivity scenario.
#include <gtest/gtest.h>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/scenario/figure4.hpp"

namespace ohpx {
namespace {

using scenario::CounterPointer;
using scenario::CounterServant;
using scenario::EchoPointer;
using scenario::EchoServant;
using scenario::EchoStub;

std::vector<std::int32_t> iota_values(std::size_t n) {
  std::vector<std::int32_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<std::int32_t>(i);
  return values;
}

class TwoMachineWorld : public ::testing::Test {
 protected:
  void SetUp() override {
    lan_ = world_.add_lan("lan");
    m_client_ = world_.add_machine("client-box", lan_);
    m_server_ = world_.add_machine("server-box", lan_);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
  }

  runtime::World world_;
  netsim::LanId lan_{};
  netsim::MachineId m_client_{}, m_server_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
};

TEST_F(TwoMachineWorld, EchoAcrossMachinesUsesNexus) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoPointer gp(*client_ctx_, ref);

  const auto values = iota_values(100);
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
  EXPECT_EQ(gp->sum(values), 4950);
}

TEST_F(TwoMachineWorld, SameMachineUsesShm) {
  orb::Context& local_server = world_.create_context(m_client_);
  auto ref = orb::RefBuilder(local_server, std::make_shared<EchoServant>()).build();
  EchoPointer gp(*client_ctx_, ref);

  EXPECT_EQ(gp->reverse("abc"), "cba");
  EXPECT_EQ(gp->last_protocol(), "shm");
}

TEST_F(TwoMachineWorld, GlueChainRoundTrips) {
  auto key = crypto::Key128::from_seed(42);
  auto encryption = std::make_shared<cap::EncryptionCapability>(key);
  auto auth = std::make_shared<cap::AuthenticationCapability>(
      key, "tester", cap::Scope::always);

  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({encryption, auth})
                 .build();
  EchoPointer gp(*client_ctx_, ref);

  const auto values = iota_values(1000);
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "glue[encryption,authentication]->nexus-tcp");
}

TEST_F(TwoMachineWorld, QuotaExhaustionRaisesTypedError) {
  auto quota = std::make_shared<cap::QuotaCapability>(3);
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({quota})
                 .build();
  EchoPointer gp(*client_ctx_, ref);

  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(gp->ping(), 3u);
  try {
    gp->ping();
    FAIL() << "expected CapabilityDenied";
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_exhausted);
  }
}

TEST_F(TwoMachineWorld, ApplicationErrorPropagatesAsRemoteError) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoPointer gp(*client_ctx_, ref);

  try {
    gp->fail();
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::remote_application_error);
    EXPECT_STREQ(e.what(), "echo failed");
  }
}

TEST_F(TwoMachineWorld, UnknownMethodPropagates) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EchoStub stub(*client_ctx_, ref);
  EXPECT_THROW(stub.call<std::int32_t>(9999), ObjectError);
}

TEST_F(TwoMachineWorld, TypeMismatchRejectedAtBind) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>()).build();
  EXPECT_THROW(CounterPointer(*client_ctx_, ref), ObjectError);
}

TEST_F(TwoMachineWorld, ReferenceExchangeCarriesCapabilities) {
  auto quota = std::make_shared<cap::QuotaCapability>(2);
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({quota})
                 .build();

  // First client uses the reference once...
  EchoPointer first(*client_ctx_, ref);
  EXPECT_EQ(first->ping(), 1u);

  // ...then serializes it and hands it to a second client context.  The
  // server-side quota keeps its count: only one call remains.
  orb::Context& other_client = world_.create_context(m_client_);
  EchoPointer second =
      EchoPointer::from_bytes(other_client, first->ref().to_bytes());
  EXPECT_EQ(second->ping(), 2u);
  EXPECT_THROW(second->ping(), CapabilityDenied);
}

TEST_F(TwoMachineWorld, RealTcpProtocol) {
  server_ctx_->enable_tcp();
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoPointer gp(*client_ctx_, ref);

  const auto values = iota_values(5000);
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "tcp");
}

TEST_F(TwoMachineWorld, MigrationPreservesCounterState) {
  auto servant = std::make_shared<CounterServant>();
  auto ref = orb::RefBuilder(*server_ctx_, servant).build();
  CounterPointer gp(*client_ctx_, ref);

  gp->add(5);
  gp->add(7);
  EXPECT_EQ(gp->get(), 12);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");

  // Migrate the counter onto the client's machine; the same GP now picks
  // shared memory and still sees the accumulated state.
  orb::Context& local = world_.create_context(m_client_);
  runtime::migrate_shared(ref.object_id(), *server_ctx_, local);

  EXPECT_EQ(gp->get(), 12);
  EXPECT_EQ(gp->last_protocol(), "shm");
  EXPECT_EQ(gp->add(3), 15);
}

// nexus-tcp reads its link from the placement on every call: after the
// server moves across the WAN, the very next call is charged the WAN
// link's modeled time both ways, not the LAN link it was first used on.
TEST_F(TwoMachineWorld, NexusChargesTheLinkOfTheCurrentPlacement) {
  const netsim::LinkSpec lan_link = netsim::atm_155();
  const netsim::LinkSpec wan_link = netsim::wan_t3();
  world_.topology().set_lan_link(lan_, lan_link);
  world_.topology().set_default_wan_link(wan_link);
  const netsim::LanId far_lan = world_.add_lan("far-lan");
  orb::Context& far_server =
      world_.create_context(world_.add_machine("far-box", far_lan));

  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .nexus()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  const auto values = iota_values(1000);
  const auto modeled_over = [](const netsim::LinkSpec& link,
                               const CostLedger& ledger) {
    return link.transfer_time(ledger.bytes_sent()) +
           link.transfer_time(ledger.bytes_received());
  };

  CostLedger on_lan;
  EXPECT_EQ(gp->echo_with_cost(on_lan, values), values);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
  EXPECT_EQ(on_lan.modeled(), modeled_over(lan_link, on_lan));

  runtime::migrate_shared(ref.object_id(), *server_ctx_, far_server);

  CostLedger on_wan;
  EXPECT_EQ(gp->echo_with_cost(on_wan, values), values);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
  EXPECT_EQ(on_wan.bytes_sent(), on_lan.bytes_sent()) << "one attempt";
  EXPECT_EQ(on_wan.modeled(), modeled_over(wan_link, on_wan));
  EXPECT_GT(on_wan.modeled(), on_lan.modeled());
}

TEST_F(TwoMachineWorld, MigrateCopyViaSnapshotRestore) {
  runtime::ServantTypeRegistry::instance().register_type<CounterServant>();

  auto servant = std::make_shared<CounterServant>();
  auto ref = orb::RefBuilder(*server_ctx_, servant).build();
  CounterPointer gp(*client_ctx_, ref);
  gp->set(41);

  orb::Context& local = world_.create_context(m_client_);
  runtime::migrate_copy(ref.object_id(), *server_ctx_, local);

  EXPECT_EQ(gp->add(1), 42);
  // The original instance is out of the loop: mutating it has no effect.
  servant->set_value(0);
  EXPECT_EQ(gp->get(), 42);
}

TEST_F(TwoMachineWorld, PoolDisableForcesFallback) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .shm()
                 .nexus()
                 .build();
  orb::Context& local_server = world_.create_context(m_client_);
  runtime::migrate_shared(ref.object_id(), *server_ctx_, local_server);

  EchoPointer gp(*client_ctx_, ref);
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->last_protocol(), "shm");

  // User control over selection (paper §3.2): disabling shm in the local
  // pool forces the next entry even though shm is applicable.
  client_ctx_->pool().disable("shm");
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
}

// ---- the Figure 4 scenario ------------------------------------------------

TEST(Figure4, ProtocolAdaptsAcrossAllFourStages) {
  scenario::Figure4Scenario fig(netsim::atm_155(), netsim::wan_t3());
  EchoPointer gp = fig.client_pointer();
  const auto values = iota_values(256);

  // Stage 1: server on M1, different campus — full glue chain.
  EXPECT_EQ(fig.server_machine(), fig.m1());
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "glue[quota,authentication]->nexus-tcp");

  // Stage 3: migrated to M2, same campus — timeout-only glue.
  fig.migrate_to(fig.m2());
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "glue[quota]->nexus-tcp");

  // Stage 5: migrated to M3, same LAN — plain nexus (shm inapplicable).
  fig.migrate_to(fig.m3());
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");

  // Stage 7: migrated to M0, same machine — shared memory.
  fig.migrate_to(fig.m0());
  EXPECT_EQ(gp->echo(values), values);
  EXPECT_EQ(gp->last_protocol(), "shm");
}

TEST(Figure4, ModeledCostsRankProtocolsAsInPaper) {
  scenario::Figure4Scenario fig(netsim::atm_155(), netsim::wan_t3());
  EchoPointer gp = fig.client_pointer();
  const auto values = iota_values(64 * 1024);

  CostLedger on_wan;
  gp->echo_with_cost(on_wan, values);

  fig.migrate_to(fig.m0());
  CostLedger on_shm;
  gp->echo_with_cost(on_shm, values);

  // Network time dominates; shm must be at least 10x faster (the paper's
  // "more than an order of magnitude").  The ratio holds only when real
  // CPU time is not inflated by sanitizer instrumentation or the
  // lock-order validator (which serializes every sync::Mutex acquisition
  // through its registry); the modeled-time invariants below hold
  // regardless.
#if !defined(OHPX_SANITIZED_BUILD) && \
    !(OHPX_LOCK_ORDER_CHECKS && defined(NDEBUG))
  EXPECT_GT(on_wan.total_seconds(), 10 * on_shm.total_seconds());
#endif
  EXPECT_GT(on_wan.modeled().count(), 0);
  EXPECT_EQ(on_shm.modeled().count(), 0);
}

}  // namespace
}  // namespace ohpx
