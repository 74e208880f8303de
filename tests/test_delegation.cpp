// Tests for the delegation capability: macaroon fold correctness, caveat
// enforcement, offline attenuation of whole references, secret hygiene,
// and survival across migration.
#include <gtest/gtest.h>

#include "ohpx/capability/builtin/delegation.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/common/endian.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/orb/attenuate.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx::cap {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;
using scenario::EchoStub;

crypto::Key128 root_key() { return crypto::Key128::from_seed(0xde1e); }

CallContext request_call(std::uint32_t method_id = 1) {
  CallContext call;
  call.request_id = 7;
  call.object_id = 9;
  call.method_id = method_id;
  return call;
}

// ---- fold mechanics -----------------------------------------------------------

TEST(DelegationFold, BearerTokenVerifies) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = DelegationCapability::from_descriptor(verifier->descriptor());

  wire::Buffer payload(Bytes{1, 2, 3});
  bearer->process(payload, request_call());
  EXPECT_GT(payload.size(), 3u);
  verifier->unprocess(payload, request_call());
  EXPECT_EQ(payload.bytes(), (Bytes{1, 2, 3}));
}

TEST(DelegationFold, ForgedTokenRejected) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto forged = DelegationCapability::make_bearer({}, Bytes(8, 0x41));
  wire::Buffer payload(Bytes{1});
  forged->process(payload, request_call());
  EXPECT_THROW(verifier->unprocess(payload, request_call()), CapabilityDenied);
}

TEST(DelegationFold, WrongRootRejected) {
  auto minting = DelegationCapability::make_root(root_key());
  auto other_verifier =
      DelegationCapability::make_root(crypto::Key128::from_seed(999));
  auto bearer = DelegationCapability::from_descriptor(minting->descriptor());
  wire::Buffer payload(Bytes{1});
  bearer->process(payload, request_call());
  EXPECT_THROW(other_verifier->unprocess(payload, request_call()),
               CapabilityDenied);
}

// A trailer length near 2^32 must not wrap the bounds check: it is
// refused as truncated before anything is sliced.
TEST(DelegationFold, TrailerLengthNearTwoToThe32IsTruncated) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = DelegationCapability::from_descriptor(verifier->descriptor());
  for (const std::uint32_t length : {0xfffffffcu, 0xffffffffu}) {
    wire::Buffer payload(Bytes{1, 2, 3});
    bearer->process(payload, request_call());
    store_be(payload.data() + payload.size() - 4, length);
    try {
      verifier->unprocess(payload, request_call());
      ADD_FAILURE() << "trailer length " << length << " accepted";
    } catch (const CapabilityDenied& e) {
      EXPECT_EQ(e.code(), ErrorCode::capability_auth_failed);
      EXPECT_NE(std::string(e.what()).find("delegation trailer truncated"),
                std::string::npos)
          << "trailer length " << length << ": " << e.what();
    }
  }
}

TEST(DelegationFold, CaveatCannotBeDropped) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto narrowed = verifier->attenuate("method<=3");
  // A malicious holder keeps the narrowed token but claims no caveats.
  auto stripped = DelegationCapability::make_bearer({}, narrowed->token());
  wire::Buffer payload(Bytes{1});
  stripped->process(payload, request_call(9));
  EXPECT_THROW(verifier->unprocess(payload, request_call(9)), CapabilityDenied);
}

TEST(DelegationFold, CaveatCannotBeReplaced) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto narrowed = verifier->attenuate("method<=3");
  // Same token, different caveat text: fold mismatch.
  auto lying = DelegationCapability::make_bearer({"method<=999"},
                                                 narrowed->token());
  wire::Buffer payload(Bytes{1});
  lying->process(payload, request_call(500));
  EXPECT_THROW(verifier->unprocess(payload, request_call(500)),
               CapabilityDenied);
}

// ---- caveat enforcement ----------------------------------------------------------

TEST(DelegationCaveats, MethodUpperBound) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = verifier->attenuate("method<=3");
  for (std::uint32_t method : {1u, 3u}) {
    wire::Buffer payload(Bytes{1});
    bearer->process(payload, request_call(method));
    EXPECT_NO_THROW(verifier->unprocess(payload, request_call(method)));
  }
  wire::Buffer payload(Bytes{1});
  bearer->process(payload, request_call(4));
  EXPECT_THROW(verifier->unprocess(payload, request_call(4)), CapabilityDenied);
}

TEST(DelegationCaveats, MethodAllowList) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = verifier->attenuate("method in 2,5");
  wire::Buffer ok(Bytes{1});
  bearer->process(ok, request_call(5));
  EXPECT_NO_THROW(verifier->unprocess(ok, request_call(5)));

  wire::Buffer bad(Bytes{1});
  bearer->process(bad, request_call(3));
  EXPECT_THROW(verifier->unprocess(bad, request_call(3)), CapabilityDenied);
}

TEST(DelegationCaveats, PayloadSizeBound) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = verifier->attenuate("size<=8");
  wire::Buffer small(Bytes(8, 1));
  bearer->process(small, request_call());
  EXPECT_NO_THROW(verifier->unprocess(small, request_call()));

  wire::Buffer big(Bytes(9, 1));
  bearer->process(big, request_call());
  EXPECT_THROW(verifier->unprocess(big, request_call()), CapabilityDenied);
}

TEST(DelegationCaveats, StackedCaveatsAllApply) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = verifier->attenuate("method<=5")->attenuate("size<=4");
  wire::Buffer ok(Bytes{1});
  bearer->process(ok, request_call(2));
  EXPECT_NO_THROW(verifier->unprocess(ok, request_call(2)));

  wire::Buffer too_big(Bytes(5, 0));
  bearer->process(too_big, request_call(2));
  EXPECT_THROW(verifier->unprocess(too_big, request_call(2)), CapabilityDenied);

  wire::Buffer bad_method(Bytes{1});
  bearer->process(bad_method, request_call(6));
  EXPECT_THROW(verifier->unprocess(bad_method, request_call(6)),
               CapabilityDenied);
}

TEST(DelegationCaveats, UnknownCaveatFailsClosed) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto bearer = verifier->attenuate("phase-of-moon=full");
  wire::Buffer payload(Bytes{1});
  bearer->process(payload, request_call());
  EXPECT_THROW(verifier->unprocess(payload, request_call()), CapabilityDenied);
}

TEST(DelegationCaveats, MalformedCaveatInputs) {
  auto verifier = DelegationCapability::make_root(root_key());
  EXPECT_THROW(verifier->attenuate(""), CapabilityDenied);
  EXPECT_THROW(verifier->attenuate("a\nb"), CapabilityDenied);

  auto bearer = verifier->attenuate("method<=notanumber");
  wire::Buffer payload(Bytes{1});
  bearer->process(payload, request_call());
  EXPECT_THROW(verifier->unprocess(payload, request_call()), CapabilityDenied);
}

// ---- secret hygiene ---------------------------------------------------------------

TEST(DelegationSecrets, PublicDescriptorNeverCarriesRoot) {
  auto verifier = DelegationCapability::make_root(root_key());
  const auto pub = verifier->descriptor();
  EXPECT_EQ(pub.params.count("root_key"), 0u);
  EXPECT_EQ(pub.get_or("role", ""), "bearer");

  const auto priv = verifier->server_descriptor();
  EXPECT_EQ(priv.get_or("role", ""), "verifier");
  EXPECT_EQ(priv.params.count("token"), 0u);
}

TEST(DelegationSecrets, RegistryRoundTripBothRoles) {
  auto verifier = DelegationCapability::make_root(root_key());
  auto& registry = CapabilityRegistry::instance();

  const auto bearer_copy = registry.instantiate(verifier->descriptor());
  const auto verifier_copy = registry.instantiate(verifier->server_descriptor());

  wire::Buffer payload(Bytes{5, 6});
  bearer_copy->process(payload, request_call());
  EXPECT_NO_THROW(verifier_copy->unprocess(payload, request_call()));
  EXPECT_EQ(payload.bytes(), (Bytes{5, 6}));
}

// ---- end to end through the ORB ------------------------------------------------------

class DelegationRmi : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    m_server_ = world_.add_machine("server", lan);
    m_client_ = world_.add_machine("client", lan);
    server_ctx_ = &world_.create_context(m_server_);
    client_ctx_ = &world_.create_context(m_client_);

    root_ = DelegationCapability::make_root(root_key());
    ref_ = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
               .glue({root_})
               .build();
  }

  runtime::World world_;
  netsim::MachineId m_server_{}, m_client_{};
  orb::Context* server_ctx_ = nullptr;
  orb::Context* client_ctx_ = nullptr;
  std::shared_ptr<DelegationCapability> root_;
  orb::ObjectRef ref_;
};

TEST_F(DelegationRmi, UnattenuatedReferenceHasFullAccess) {
  EchoPointer gp(*client_ctx_, ref_);
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->reverse("ab"), "ba");
}

TEST_F(DelegationRmi, AttenuatedReferenceIsNarrower) {
  // The holder narrows the reference to kEcho/kSum/kPing (ids 1..3) —
  // no server involvement.
  const orb::ObjectRef narrowed =
      orb::attenuate_reference(ref_, "method<=3");
  EchoPointer gp(*client_ctx_, narrowed);
  EXPECT_EQ(gp->ping(), 1u);                       // kPing = 3: allowed
  EXPECT_THROW(gp->reverse("ab"), CapabilityDenied);  // kReverse = 4: refused
}

TEST_F(DelegationRmi, AttenuationStacksAcrossHolders) {
  const orb::ObjectRef first = orb::attenuate_reference(ref_, "method<=4");
  const orb::ObjectRef second =
      orb::attenuate_reference(first, "method<=2");
  EchoPointer gp(*client_ctx_, second);
  EXPECT_EQ(gp->sum({1, 2}), 3);                        // kSum = 2
  EXPECT_THROW(gp->ping(), CapabilityDenied);           // kPing = 3
}

TEST_F(DelegationRmi, AttenuationRequiresDelegation) {
  auto plain = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                   .nexus()
                   .build();
  EXPECT_THROW(orb::attenuate_reference(plain, "method<=1"), CapabilityDenied);
}

TEST_F(DelegationRmi, VerifierSurvivesMigration) {
  const orb::ObjectRef narrowed = orb::attenuate_reference(ref_, "method<=3");
  EchoPointer gp(*client_ctx_, narrowed);
  EXPECT_EQ(gp->ping(), 1u);

  orb::Context& other = world_.create_context(m_server_);
  runtime::migrate_shared(ref_.object_id(), *server_ctx_, other);

  // The root key moved with the glue binding (server_descriptor path):
  // tokens still verify, caveats still bind.
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_THROW(gp->reverse("xy"), CapabilityDenied);
}

// ---- randomized fold sweep ------------------------------------------------------

class DelegationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DelegationFuzz, RandomCaveatChainsVerifyAndBind) {
  Xoshiro256 rng(GetParam());
  auto verifier = DelegationCapability::make_root(root_key());

  for (int round = 0; round < 20; ++round) {
    // Build a random chain of known caveats and track the tightest bounds.
    std::shared_ptr<const DelegationCapability> bearer = verifier;
    std::uint64_t method_bound = 1000000;
    std::uint64_t size_bound = 1000000;
    const std::size_t depth = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < depth; ++i) {
      if (rng.next_below(2) == 0) {
        const std::uint64_t bound = 1 + rng.next_below(50);
        bearer = bearer->attenuate("method<=" + std::to_string(bound));
        method_bound = std::min(method_bound, bound);
      } else {
        const std::uint64_t bound = 1 + rng.next_below(64);
        bearer = bearer->attenuate("size<=" + std::to_string(bound));
        size_bound = std::min(size_bound, bound);
      }
    }

    const std::uint32_t method =
        static_cast<std::uint32_t>(1 + rng.next_below(60));
    const std::size_t size = rng.next_below(80);
    wire::Buffer payload{Bytes(size, 0x33)};
    auto bearer_copy =
        DelegationCapability::from_descriptor(bearer->descriptor());
    bearer_copy->process(payload, request_call(method));

    const bool should_pass = method <= method_bound && size <= size_bound;
    if (should_pass) {
      EXPECT_NO_THROW(verifier->unprocess(payload, request_call(method)));
      EXPECT_EQ(payload.size(), size);
    } else {
      EXPECT_THROW(verifier->unprocess(payload, request_call(method)),
                   CapabilityDenied);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelegationFuzz,
                         ::testing::Values(71, 72, 73, 74));

}  // namespace
}  // namespace ohpx::cap
