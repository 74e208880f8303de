// Unit tests for the capability layer: every built-in capability's
// process/unprocess identity, tamper detection, admission control, scopes,
// descriptor exchange through the registry, and chain composition order.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <thread>

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
#include "ohpx/capability/chain.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/crypto/mac.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::cap {
namespace {

CallContext make_call(std::uint64_t request_id = 1,
                      Direction direction = Direction::request) {
  CallContext call;
  call.request_id = request_id;
  call.object_id = 10;
  call.method_id = 3;
  call.direction = direction;
  return call;
}

wire::Buffer payload_of(std::string_view text) {
  return wire::Buffer(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size());
}

crypto::Key128 test_key() { return crypto::Key128::from_seed(0xabc); }

// ---- process∘unprocess identity for all byte-transforming capabilities -----

std::vector<CapabilityPtr> transforming_capabilities() {
  return {
      std::make_shared<EncryptionCapability>(test_key()),
      std::make_shared<AuthenticationCapability>(test_key(), "t",
                                                 Scope::always),
      std::make_shared<ChecksumCapability>(),
      std::make_shared<CompressionCapability>(compress::CodecId::rle),
      std::make_shared<CompressionCapability>(compress::CodecId::lz),
      std::make_shared<PaddingCapability>(64),
      std::make_shared<PaddingCapability>(1),
      std::make_shared<AuditCapability>(),
  };
}

TEST(Identity, EveryCapabilityRoundTrips) {
  for (const auto& capability : transforming_capabilities()) {
    const auto call = make_call();
    wire::Buffer payload = payload_of("some payload worth protecting, 1234");
    const Bytes original = payload.bytes();
    capability->process(payload, call);
    capability->unprocess(payload, call);
    EXPECT_EQ(payload.bytes(), original) << capability->kind();
  }
}

TEST(Identity, EmptyPayloadRoundTrips) {
  for (const auto& capability : transforming_capabilities()) {
    const auto call = make_call();
    wire::Buffer payload;
    capability->process(payload, call);
    capability->unprocess(payload, call);
    EXPECT_TRUE(payload.empty()) << capability->kind();
  }
}

// Property: for EVERY builtin kind, unprocess(process(msg)) == msg over
// random payloads — the runtime half of the symmetry contract that
// tools/ohpx_lint.py's cap-pairs check enforces syntactically.  Payload
// sizes sweep 0..~4KiB with arbitrary bytes, and each call uses a fresh
// request id so nonce-dependent transforms (encryption) are exercised
// across their seed space.
TEST(Identity, EveryBuiltinRoundTripsRandomPayloads) {
  Xoshiro256 rng(0x0badcafe);
  // Pass-through builtins (admission-only or recording-only) participate
  // too: identity must hold even though they do not transform bytes.
  std::vector<CapabilityPtr> capabilities = transforming_capabilities();
  capabilities.push_back(std::make_shared<QuotaCapability>(1u << 30));
  capabilities.push_back(std::make_shared<RateLimitCapability>(1e9, 1e9));
  capabilities.push_back(std::make_shared<LeaseCapability>(
      std::chrono::milliseconds(1 << 30)));
  capabilities.push_back(std::make_shared<FaultCapability>(1u << 30));

  for (int iteration = 0; iteration < 64; ++iteration) {
    const std::size_t size = static_cast<std::size_t>(
        rng.next_below(4096 + 1));
    Bytes original(size);
    for (auto& byte : original) {
      byte = static_cast<std::uint8_t>(rng.next());
    }
    const auto call = make_call(1000 + static_cast<std::uint64_t>(iteration));
    for (const auto& capability : capabilities) {
      wire::Buffer payload{original};
      capability->process(payload, call);
      capability->unprocess(payload, call);
      EXPECT_EQ(payload.bytes(), original)
          << capability->kind() << " iteration " << iteration
          << " size " << size;
    }
  }
}

// Delegation transforms asymmetrically — the bearer stamps, the verifier
// strips — so its identity property runs over the bearer/verifier pair.
TEST(Identity, DelegationPairRoundTripsRandomPayloads) {
  Xoshiro256 rng(0x5eed5);
  auto verifier = DelegationCapability::make_root(test_key());
  auto bearer = DelegationCapability::from_descriptor(verifier->descriptor());
  for (int iteration = 0; iteration < 32; ++iteration) {
    const std::size_t size = static_cast<std::size_t>(rng.next_below(2048 + 1));
    Bytes original(size);
    for (auto& byte : original) {
      byte = static_cast<std::uint8_t>(rng.next());
    }
    const auto call = make_call(5000 + static_cast<std::uint64_t>(iteration));
    wire::Buffer payload{original};
    bearer->process(payload, call);
    verifier->unprocess(payload, call);
    EXPECT_EQ(payload.bytes(), original) << "iteration " << iteration;
  }
}

// ---- encryption --------------------------------------------------------------

TEST(Encryption, ActuallyScrambles) {
  EncryptionCapability enc(test_key());
  wire::Buffer payload = payload_of("plaintext plaintext plaintext");
  const Bytes original = payload.bytes();
  enc.process(payload, make_call());
  EXPECT_NE(payload.bytes(), original);
}

TEST(Encryption, RequestAndReplyUseDifferentNonces) {
  EncryptionCapability enc(test_key());
  wire::Buffer a = payload_of("same bytes");
  wire::Buffer b = payload_of("same bytes");
  enc.process(a, make_call(5, Direction::request));
  enc.process(b, make_call(5, Direction::reply));
  EXPECT_NE(a.bytes(), b.bytes());
}

TEST(Encryption, DifferentRequestsDifferentCiphertext) {
  EncryptionCapability enc(test_key());
  wire::Buffer a = payload_of("same bytes");
  wire::Buffer b = payload_of("same bytes");
  enc.process(a, make_call(1));
  enc.process(b, make_call(2));
  EXPECT_NE(a.bytes(), b.bytes());
}

// ---- authentication ------------------------------------------------------------

TEST(Authentication, AppendsAndStripsTag) {
  AuthenticationCapability auth(test_key(), "alice", Scope::always);
  wire::Buffer payload = payload_of("message");
  auth.process(payload, make_call());
  EXPECT_EQ(payload.size(), 7u + crypto::kMacTagSize);
  auth.unprocess(payload, make_call());
  EXPECT_EQ(payload.bytes(), bytes_of("message"));
}

TEST(Authentication, TamperedPayloadRejected) {
  AuthenticationCapability auth(test_key(), "alice", Scope::always);
  wire::Buffer payload = payload_of("message");
  auth.process(payload, make_call());
  payload.data()[0] ^= 1;
  try {
    auth.unprocess(payload, make_call());
    FAIL();
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_auth_failed);
  }
}

TEST(Authentication, WrongKeyRejected) {
  AuthenticationCapability signer(test_key(), "alice", Scope::always);
  AuthenticationCapability verifier(crypto::Key128::from_seed(999), "alice",
                                    Scope::always);
  wire::Buffer payload = payload_of("message");
  signer.process(payload, make_call());
  EXPECT_THROW(verifier.unprocess(payload, make_call()), CapabilityDenied);
}

TEST(Authentication, ReplayOnDifferentRequestRejected) {
  AuthenticationCapability auth(test_key(), "alice", Scope::always);
  wire::Buffer payload = payload_of("message");
  auth.process(payload, make_call(1));
  // Same bytes presented as a different request id: binding must not match.
  EXPECT_THROW(auth.unprocess(payload, make_call(2)), CapabilityDenied);
}

TEST(Authentication, DifferentPrincipalRejected) {
  AuthenticationCapability alice(test_key(), "alice", Scope::always);
  AuthenticationCapability mallory(test_key(), "mallory", Scope::always);
  wire::Buffer payload = payload_of("message");
  alice.process(payload, make_call());
  EXPECT_THROW(mallory.unprocess(payload, make_call()), CapabilityDenied);
}

TEST(Authentication, TooShortPayloadRejected) {
  AuthenticationCapability auth(test_key(), "alice", Scope::always);
  wire::Buffer payload = payload_of("abc");  // shorter than a tag
  EXPECT_THROW(auth.unprocess(payload, make_call()), CapabilityDenied);
}

// ---- checksum -------------------------------------------------------------------

TEST(Checksum, DetectsCorruption) {
  ChecksumCapability checksum;
  wire::Buffer payload = payload_of("data data data");
  checksum.process(payload, make_call());
  payload.data()[3] ^= 0x40;
  EXPECT_THROW(checksum.unprocess(payload, make_call()), CapabilityDenied);
}

TEST(Checksum, TooShortRejected) {
  ChecksumCapability checksum;
  wire::Buffer payload = payload_of("ab");
  EXPECT_THROW(checksum.unprocess(payload, make_call()), CapabilityDenied);
}

// ---- compression -----------------------------------------------------------------

TEST(Compression, ShrinksRepetitivePayloads) {
  CompressionCapability compression(compress::CodecId::rle);
  wire::Buffer payload{Bytes(10'000, 0x55)};
  compression.process(payload, make_call());
  EXPECT_LT(payload.size(), 1000u);
  compression.unprocess(payload, make_call());
  EXPECT_EQ(payload.bytes(), Bytes(10'000, 0x55));
}

TEST(Compression, GarbageInputRejectedCleanly) {
  CompressionCapability compression(compress::CodecId::lz);
  wire::Buffer payload = payload_of("not a compressed stream");
  EXPECT_THROW(compression.unprocess(payload, make_call()), CapabilityDenied);
}

// ---- padding ----------------------------------------------------------------------

TEST(Padding, RoundsUpToBlockMultiples) {
  PaddingCapability padding(128);
  wire::Buffer payload = payload_of("short");
  padding.process(payload, make_call());
  EXPECT_EQ(payload.size(), 128u);
  padding.unprocess(payload, make_call());
  EXPECT_EQ(payload.bytes(), bytes_of("short"));
}

TEST(Padding, AlreadyAlignedGrowsOneBlock) {
  PaddingCapability padding(16);
  wire::Buffer payload{Bytes(16, 0x11)};  // 16 + 4 trailer -> 32
  padding.process(payload, make_call());
  EXPECT_EQ(payload.size(), 32u);
  padding.unprocess(payload, make_call());
  EXPECT_EQ(payload.size(), 16u);
}

TEST(Padding, HidesSizeDistinctions) {
  PaddingCapability padding(256);
  wire::Buffer a = payload_of("x");
  wire::Buffer b = payload_of(std::string(200, 'y'));
  padding.process(a, make_call());
  padding.process(b, make_call());
  EXPECT_EQ(a.size(), b.size());
}

TEST(Padding, MalformedLengthsRejected) {
  PaddingCapability padding(64);
  wire::Buffer not_aligned(Bytes(63, 0));
  EXPECT_THROW(padding.unprocess(not_aligned, make_call()), CapabilityDenied);

  wire::Buffer impossible(Bytes(64, 0xff));  // trailer declares huge length
  EXPECT_THROW(padding.unprocess(impossible, make_call()), CapabilityDenied);
}

TEST(Padding, ZeroBlockRejected) {
  EXPECT_THROW(PaddingCapability(0), CapabilityDenied);
}

// ---- quota -----------------------------------------------------------------------

TEST(Quota, AdmitsUpToLimitThenRefuses) {
  QuotaCapability quota(2);
  quota.admit(make_call());
  quota.admit(make_call());
  EXPECT_EQ(quota.remaining(), 0u);
  try {
    quota.admit(make_call());
    FAIL();
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_exhausted);
  }
  EXPECT_EQ(quota.used(), 2u);  // the refused call is rolled back
}

TEST(Quota, RepliesAreFree) {
  QuotaCapability quota(1);
  quota.admit(make_call(1, Direction::reply));
  quota.admit(make_call(2, Direction::reply));
  EXPECT_EQ(quota.used(), 0u);
}

TEST(Quota, ThreadSafeCounting) {
  QuotaCapability quota(1000);
  std::vector<std::thread> threads;
  std::atomic<int> denied{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 300; ++i) {
        try {
          quota.admit(make_call());
        } catch (const CapabilityDenied&) {
          ++denied;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(quota.used(), 1000u);
  EXPECT_EQ(denied.load(), 200);
}

// ---- lease -----------------------------------------------------------------------

TEST(Lease, AdmitsWhileFreshThenExpires) {
  LeaseCapability lease(std::chrono::milliseconds(60));
  EXPECT_NO_THROW(lease.admit(make_call()));
  EXPECT_FALSE(lease.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // ohpx-lint: allow-wall-clock (lease TTLs run on the steady clock)
  EXPECT_TRUE(lease.expired());
  try {
    lease.admit(make_call());
    FAIL();
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_expired);
  }
}

TEST(Lease, DescriptorCarriesRemainingTime) {
  LeaseCapability lease(std::chrono::milliseconds(5000));
  const auto descriptor = lease.descriptor();
  const long long ttl = std::stoll(descriptor.params.at("ttl_ms"));
  EXPECT_GT(ttl, 4000);
  EXPECT_LE(ttl, 5000);
}

TEST(Lease, ZeroTtlIsBornExpired) {
  LeaseCapability lease(std::chrono::milliseconds(0));
  EXPECT_TRUE(lease.expired());
  EXPECT_EQ(lease.remaining().count(), 0);
}

TEST(Lease, PeerTtlIsClampedToTheLongestLease) {
  // 2^62 ms overflows the nanosecond expiry unless clamped first.
  resilience::ScopedManualClock clock(1'000'000);
  const std::chrono::milliseconds longest(LeaseCapability::kLongestMs);
  for (const std::uint64_t ttl_ms :
       {std::uint64_t{1} << 62, std::numeric_limits<std::uint64_t>::max(),
        LeaseCapability::kLongestMs + 1}) {
    EXPECT_EQ(LeaseCapability(ttl_ms).remaining(), longest) << ttl_ms;
    const auto copy = CapabilityRegistry::instance().instantiate(
        CapabilityDescriptor{"lease", {{"ttl_ms", std::to_string(ttl_ms)}}});
    EXPECT_EQ(dynamic_cast<LeaseCapability&>(*copy).remaining(), longest);
  }
}

// ---- rate limit -------------------------------------------------------------------

TEST(RateLimit, BurstThenRefusal) {
  RateLimitCapability limiter(/*rate_per_sec=*/1.0, /*burst=*/3.0);
  limiter.admit(make_call());
  limiter.admit(make_call());
  limiter.admit(make_call());
  EXPECT_THROW(limiter.admit(make_call()), CapabilityDenied);
}

TEST(RateLimit, RefillsOverTime) {
  RateLimitCapability limiter(/*rate_per_sec=*/200.0, /*burst=*/1.0);
  limiter.admit(make_call());
  EXPECT_THROW(limiter.admit(make_call()), CapabilityDenied);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // ohpx-lint: allow-wall-clock (token-bucket refill runs on the steady clock)
  EXPECT_NO_THROW(limiter.admit(make_call()));
}

TEST(RateLimit, RepliesNotCounted) {
  RateLimitCapability limiter(1.0, 1.0);
  limiter.admit(make_call(1, Direction::reply));
  limiter.admit(make_call(1, Direction::request));
  EXPECT_THROW(limiter.admit(make_call(2, Direction::request)),
               CapabilityDenied);
}

// ---- fault injection --------------------------------------------------------------

// Drives `count` request admits and records which ordinals were refused.
std::vector<bool> refusal_pattern(FaultCapability& fault, std::uint64_t count) {
  std::vector<bool> refused;
  for (std::uint64_t i = 1; i <= count; ++i) {
    try {
      fault.admit(make_call(i));
      refused.push_back(false);
    } catch (const CapabilityDenied&) {
      refused.push_back(true);
    }
  }
  return refused;
}

TEST(Fault, CountersStayConsistentAtEveryObservationPoint) {
  FaultCapability fault(3u);  // refuse every 3rd request
  for (std::uint64_t i = 1; i <= 9; ++i) {
    try {
      fault.admit(make_call(i));
    } catch (const CapabilityDenied& e) {
      EXPECT_EQ(e.code(), ErrorCode::capability_denied);
    }
    EXPECT_EQ(fault.admitted() + fault.refused(), i)
        << "admitted + refused must equal requests seen, always";
  }
  EXPECT_EQ(fault.admitted(), 6u);
  EXPECT_EQ(fault.refused(), 3u);
}

TEST(Fault, RepliesAreNeitherCountedNorRefused) {
  FaultCapability fault(1u);  // refuses every request...
  EXPECT_NO_THROW(fault.admit(make_call(1, Direction::reply)));
  EXPECT_EQ(fault.admitted(), 0u);
  EXPECT_EQ(fault.refused(), 0u);
  EXPECT_THROW(fault.admit(make_call(1, Direction::request)),
               CapabilityDenied);
}

TEST(Fault, RatioModeIsAPureFunctionOfSeedAndOrdinal) {
  FaultSpec spec;
  spec.refuse_ratio = 0.5;
  spec.seed = 7;
  FaultCapability first(spec);
  FaultCapability second(spec);
  const auto pattern = refusal_pattern(first, 100);
  EXPECT_EQ(pattern, refusal_pattern(second, 100))
      << "same (seed, ordinal) => same decision, any interleaving";

  spec.seed = 8;
  FaultCapability reseeded(spec);
  EXPECT_NE(pattern, refusal_pattern(reseeded, 100));

  const auto refusals = std::count(pattern.begin(), pattern.end(), true);
  EXPECT_GT(refusals, 25);
  EXPECT_LT(refusals, 75) << "a 0.5 ratio refuses roughly half";
}

TEST(Fault, ScriptedOrdinalsComposeWithTheModulo) {
  FaultSpec spec;
  spec.fail_every = 3;
  spec.refuse_at = {2, 5};
  FaultCapability fault(spec);
  // Ordinals 1..6: the modulo refuses 3 and 6, the script refuses 2 and 5.
  const std::vector<bool> expected = {false, true, true, false, true, true};
  EXPECT_EQ(refusal_pattern(fault, 6), expected);
  EXPECT_EQ(fault.admitted() + fault.refused(), 6u);
}

TEST(Fault, DescriptorRoundTripsTheFullSchedule) {
  FaultSpec spec;
  spec.fail_every = 4;
  spec.refuse_ratio = 0.25;
  spec.seed = 9;
  spec.refuse_at = {1, 8};
  FaultCapability original(spec);

  const auto descriptor = original.descriptor();
  EXPECT_EQ(descriptor.kind, "fault");
  auto clone = FaultCapability::from_descriptor(descriptor);
  auto* cloned = dynamic_cast<FaultCapability*>(clone.get());
  ASSERT_NE(cloned, nullptr);

  EXPECT_EQ(refusal_pattern(original, 32), refusal_pattern(*cloned, 32))
      << "a reconstructed schedule refuses the exact same ordinals";
  EXPECT_EQ(cloned->descriptor().params, descriptor.params);
}

TEST(Fault, RejectsDisengagedAndInvalidSchedules) {
  try {
    FaultCapability fault{FaultSpec{}};
    FAIL() << "a schedule with no engaged mode refuses nothing";
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_bad_payload);
  }
  FaultSpec bad_ratio;
  bad_ratio.refuse_ratio = 1.5;
  EXPECT_THROW(FaultCapability{bad_ratio}, CapabilityDenied);
}

// ---- audit -----------------------------------------------------------------------

TEST(Audit, RecordsCallsInOrder) {
  AuditCapability audit(16);
  wire::Buffer payload = payload_of("xyz");
  audit.process(payload, make_call(7));
  audit.unprocess(payload, make_call(7, Direction::reply));
  const auto records = audit.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].request_id, 7u);
  EXPECT_EQ(records[0].direction, Direction::request);
  EXPECT_EQ(records[1].direction, Direction::reply);
  EXPECT_EQ(records[0].payload_size, 3u);
  EXPECT_EQ(audit.total_calls(), 2u);
}

TEST(Audit, RingBounded) {
  AuditCapability audit(4);
  wire::Buffer payload = payload_of("x");
  for (int i = 0; i < 10; ++i) {
    audit.process(payload, make_call(static_cast<std::uint64_t>(i)));
  }
  const auto records = audit.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().request_id, 6u);  // oldest retained
  EXPECT_EQ(audit.total_calls(), 10u);
}

// ---- scopes -----------------------------------------------------------------------

TEST(Scopes, ParseAndFormatRoundTrip) {
  for (Scope scope : {Scope::always, Scope::cross_campus, Scope::cross_lan,
                      Scope::remote, Scope::same_lan, Scope::same_machine,
                      Scope::never}) {
    EXPECT_EQ(scope_from_string(to_string(scope)), scope);
  }
  EXPECT_EQ(scope_from_string("bogus"), std::nullopt);
}

TEST(Scopes, ApplicabilityMatrix) {
  netsim::Topology topo;
  const auto lan_a = topo.add_lan("a");
  const auto lan_b = topo.add_lan("b");
  const auto lan_c = topo.add_lan("c");
  topo.set_campus(lan_a, 0);
  topo.set_campus(lan_b, 0);
  topo.set_campus(lan_c, 1);
  const auto m_a1 = topo.add_machine("a1", lan_a);
  const auto m_a2 = topo.add_machine("a2", lan_a);
  const auto m_b = topo.add_machine("b", lan_b);
  const auto m_c = topo.add_machine("c", lan_c);

  const netsim::Placement same_machine{m_a1, m_a1, &topo};
  const netsim::Placement same_lan{m_a1, m_a2, &topo};
  const netsim::Placement same_campus{m_a1, m_b, &topo};
  const netsim::Placement cross_campus{m_a1, m_c, &topo};

  EXPECT_TRUE(scope_applies(Scope::always, cross_campus));
  EXPECT_TRUE(scope_applies(Scope::always, same_machine));

  EXPECT_TRUE(scope_applies(Scope::cross_campus, cross_campus));
  EXPECT_FALSE(scope_applies(Scope::cross_campus, same_campus));
  EXPECT_FALSE(scope_applies(Scope::cross_campus, same_lan));

  EXPECT_TRUE(scope_applies(Scope::cross_lan, same_campus));
  EXPECT_TRUE(scope_applies(Scope::cross_lan, cross_campus));
  EXPECT_FALSE(scope_applies(Scope::cross_lan, same_lan));

  EXPECT_TRUE(scope_applies(Scope::remote, same_lan));
  EXPECT_FALSE(scope_applies(Scope::remote, same_machine));

  EXPECT_TRUE(scope_applies(Scope::same_lan, same_lan));
  EXPECT_FALSE(scope_applies(Scope::same_lan, same_campus));

  EXPECT_TRUE(scope_applies(Scope::same_machine, same_machine));
  EXPECT_FALSE(scope_applies(Scope::same_machine, same_lan));

  EXPECT_FALSE(scope_applies(Scope::never, same_machine));
  EXPECT_FALSE(scope_applies(Scope::never, cross_campus));
}

// ---- descriptors & registry ----------------------------------------------------------

TEST(Registry, BuiltinsRegistered) {
  auto& registry = CapabilityRegistry::instance();
  for (const char* kind : {"encryption", "authentication", "compression",
                           "checksum", "lease", "quota", "ratelimit", "audit"}) {
    EXPECT_TRUE(registry.contains(kind)) << kind;
  }
}

TEST(Registry, UnknownKindRefused) {
  CapabilityDescriptor descriptor;
  descriptor.kind = "no-such-capability";
  try {
    CapabilityRegistry::instance().instantiate(descriptor);
    FAIL();
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_unknown);
  }
}

TEST(Registry, DescriptorRoundTripPreservesBehaviour) {
  // Serialize every built-in transforming capability's descriptor through
  // the wire format, re-instantiate, and check the copy can unprocess what
  // the original processed.
  for (const auto& original : transforming_capabilities()) {
    const wire::Buffer encoded = wire::encode_value(original->descriptor());
    const auto descriptor =
        wire::decode_value<CapabilityDescriptor>(encoded.view());
    const CapabilityPtr copy =
        CapabilityRegistry::instance().instantiate(descriptor);
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->kind(), original->kind());

    const auto call = make_call(77);
    wire::Buffer payload = payload_of("cross-process payload");
    original->process(payload, call);
    copy->unprocess(payload, call);
    EXPECT_EQ(payload.bytes(), bytes_of("cross-process payload"))
        << original->kind();
  }
}

TEST(Registry, QuotaDescriptorCarriesRemaining) {
  QuotaCapability quota(5);
  quota.admit(make_call());
  quota.admit(make_call());
  const auto copy =
      CapabilityRegistry::instance().instantiate(quota.descriptor());
  auto* quota_copy = dynamic_cast<QuotaCapability*>(copy.get());
  ASSERT_NE(quota_copy, nullptr);
  EXPECT_EQ(quota_copy->remaining(), 3u);
}

TEST(Registry, MissingParamRejected) {
  CapabilityDescriptor descriptor;
  descriptor.kind = "encryption";  // missing "key"
  EXPECT_THROW(CapabilityRegistry::instance().instantiate(descriptor),
               CapabilityDenied);
}

// A descriptor's parameters come from another process: each is read as
// exactly what its characters say, in the range the capability's
// arithmetic allows, or refused naming the kind, the parameter and the
// value.
TEST(Registry, MalformedParamsRefusedByName) {
  struct Case {
    const char* kind;
    const char* param;
    const char* value;
  };
  const Case cases[] = {
      {"quota", "max_calls", "abc"},
      {"quota", "max_calls", "-1"},
      {"quota", "max_calls", "5calls"},
      {"quota", "max_calls", "99999999999999999999999"},
      {"quota", "max_calls", ""},
      {"quota", "scope", "everywhere"},
      {"lease", "ttl_ms", "soon"},
      {"padding", "block_size", "x"},
      {"padding", "block_size", "0"},
      {"padding", "block_size", "65537"},
      {"padding", "block_size", "18446744073709551615"},
      {"audit", "max_records", ""},
      {"ratelimit", "rate_per_sec", "fast"},
      {"ratelimit", "rate_per_sec", "nan"},
      {"ratelimit", "rate_per_sec", "inf"},
      {"ratelimit", "rate_per_sec", "1e3"},
      {"fault", "fail_every", "two"},
      {"fault", "fail_every", "4294967296"},
      {"fault", "ratio", "1.5"},
      {"fault", "refuse_at", "1,x"},
      {"fault", "refuse_at", "1,"},
      {"compression", "codec", "zip"},
  };
  // Key material: refused by name the same way, its value withheld.
  const Case secrets[] = {
      {"authentication", "key", "0123456789abcdef0123456789abcdeg"},
      {"authentication", "key", "0123456789abcdef"},
      {"authentication", "key", "0123456789abcdef0123456789abcdef0"},
      {"encryption", "key", "not a key at all, but 32 chars!!"},
      {"encryption", "key", "0123456789ABCDEF0123456789ABCDEF00"},
      {"delegation", "root_key", "feedface"},
      {"delegation", "token", "abc"},
      {"delegation", "token", "0x1234"},
  };
  const auto refused = [](const Case& c, bool secret) {
    SCOPED_TRACE(std::string(c.kind) + " " + c.param + "='" + c.value + "'");
    CapabilityDescriptor descriptor{c.kind, {{c.param, c.value}}};
    if (descriptor.kind == "ratelimit") descriptor.params["burst"] = "1";
    if (c.param == std::string("root_key")) {
      descriptor.params["role"] = "verifier";
    }
    try {
      CapabilityRegistry::instance().instantiate(descriptor);
      ADD_FAILURE() << "accepted";
    } catch (const CapabilityDenied& e) {
      EXPECT_EQ(e.code(), ErrorCode::capability_bad_payload);
      const std::string what = e.what();
      std::vector<std::string> parts = {"'" + std::string(c.kind) + "'",
                                        "'" + std::string(c.param) + "'"};
      if (!secret) parts.push_back("'" + std::string(c.value) + "'");
      for (const std::string& part : parts) {
        EXPECT_NE(what.find(part), std::string::npos) << what;
      }
      if (secret) {
        EXPECT_EQ(what.find(c.value), std::string::npos) << what;
      }
    }
  };
  for (const Case& c : cases) refused(c, /*secret=*/false);
  for (const Case& c : secrets) refused(c, /*secret=*/true);
}

// Every builtin's descriptor, pinned parameter by parameter, and read back
// to a capability whose descriptor is the same: descriptor -> instantiate
// -> descriptor is a fixed point, decimals and a seed above 2^63 included.
TEST(Registry, BuiltinDescriptorsArePinnedAndReadBack) {
  resilience::ScopedManualClock clock;  // the lease's remaining time holds
  const crypto::Key128 key = crypto::Key128::from_seed(0x5eed);
  const auto verifier = DelegationCapability::make_root(key);
  const auto bearer = verifier->attenuate("method<=3");
  using Params = std::map<std::string, std::string>;
  const std::pair<CapabilityPtr, Params> pinned[] = {
      {std::make_shared<QuotaCapability>(9, Scope::cross_lan),
       {{"max_calls", "9"}, {"scope", "cross_lan"}}},
      {std::make_shared<LeaseCapability>(std::chrono::milliseconds(60'000),
                                         Scope::same_machine),
       {{"ttl_ms", "60000"}, {"scope", "same_machine"}}},
      {std::make_shared<PaddingCapability>(64, Scope::remote),
       {{"block_size", "64"}, {"scope", "remote"}}},
      {std::make_shared<ChecksumCapability>(Scope::same_lan),
       {{"scope", "same_lan"}}},
      {std::make_shared<CompressionCapability>(compress::CodecId::rle,
                                               Scope::cross_campus),
       {{"codec", "rle"}, {"scope", "cross_campus"}}},
      {std::make_shared<EncryptionCapability>(key, Scope::cross_lan),
       {{"key", key.to_hex()}, {"scope", "cross_lan"}}},
      {std::make_shared<AuthenticationCapability>(key, "alice", Scope::remote),
       {{"key", key.to_hex()}, {"principal", "alice"}, {"scope", "remote"}}},
      {std::make_shared<AuditCapability>(16), {{"max_records", "16"}}},
      {std::make_shared<RateLimitCapability>(250.5, 8.0),
       {{"rate_per_sec", "250.500000"}, {"burst", "8.000000"}}},
      {std::make_shared<FaultCapability>(
           FaultSpec{.fail_every = 3,
                     .refuse_ratio = 0.25,
                     .seed = (std::uint64_t{1} << 63) + 7,
                     .refuse_at = {2, 5}}),
       {{"fail_every", "3"},
        {"ratio", "0.250000"},
        {"seed", "9223372036854775815"},
        {"refuse_at", "2,5"}}},
      {bearer,
       {{"role", "bearer"},
        {"caveats", "method<=3"},
        {"token", to_hex(bearer->token())}}},
  };
  for (const auto& [capability, params] : pinned) {
    SCOPED_TRACE(std::string(capability->kind()));
    const CapabilityDescriptor descriptor = capability->descriptor();
    EXPECT_EQ(descriptor.params, params);
    const CapabilityPtr copy =
        CapabilityRegistry::instance().instantiate(descriptor);
    EXPECT_EQ(copy->descriptor(), descriptor);
    EXPECT_EQ(copy->scope(), capability->scope());
  }
  const CapabilityDescriptor root = verifier->server_descriptor();
  EXPECT_EQ(root.params, (Params{{"role", "verifier"}, {"root_key", key.to_hex()}}));
  EXPECT_EQ(
      CapabilityRegistry::instance().instantiate(root)->server_descriptor(),
      root);
}

TEST(Registry, CustomCapabilityPluggable) {
  class NullCapability final : public Capability {
   public:
    std::string_view kind() const noexcept override { return "custom-null"; }
    void process(wire::Buffer&, const CallContext&) override {}
    void unprocess(wire::Buffer&, const CallContext&) override {}
    CapabilityDescriptor descriptor() const override {
      return CapabilityDescriptor{"custom-null", {}};
    }
  };
  CapabilityRegistry::instance().register_factory(
      "custom-null",
      [](const CapabilityDescriptor&) { return std::make_shared<NullCapability>(); });
  EXPECT_TRUE(CapabilityRegistry::instance().contains("custom-null"));
  const auto instance = CapabilityRegistry::instance().instantiate(
      CapabilityDescriptor{"custom-null", {}});
  EXPECT_EQ(instance->kind(), "custom-null");
}

// ---- chains ---------------------------------------------------------------------------

/// Capability that appends a marker byte — makes ordering observable.
class MarkerCapability final : public Capability {
 public:
  explicit MarkerCapability(std::uint8_t marker) : marker_(marker) {}
  std::string_view kind() const noexcept override { return "marker"; }
  void process(wire::Buffer& payload, const CallContext&) override {
    payload.append(marker_);
  }
  void unprocess(wire::Buffer& payload, const CallContext&) override {
    if (payload.empty() || payload.bytes().back() != marker_) {
      throw CapabilityDenied(ErrorCode::capability_bad_payload,
                             "marker mismatch");
    }
    payload.resize(payload.size() - 1);
  }
  CapabilityDescriptor descriptor() const override {
    return CapabilityDescriptor{"marker",
                                {{"m", std::to_string(marker_)}}};
  }

 private:
  std::uint8_t marker_;
};

TEST(Chain, ProcessForwardUnprocessReverse) {
  CapabilityChain chain({std::make_shared<MarkerCapability>(1),
                         std::make_shared<MarkerCapability>(2)});
  wire::Buffer payload = payload_of("m");
  chain.process_outbound(payload, make_call());
  // Forward order: marker 1 then marker 2 → tail is [1, 2].
  ASSERT_EQ(payload.size(), 3u);
  EXPECT_EQ(payload.bytes()[1], 1);
  EXPECT_EQ(payload.bytes()[2], 2);
  // Reverse unprocess restores the original; wrong order would throw.
  chain.process_inbound(payload, make_call());
  EXPECT_EQ(payload.bytes(), bytes_of("m"));
}

TEST(Chain, ApplicabilityIsAnd) {
  netsim::Topology topo;
  const auto lan = topo.add_lan("l");
  const auto a = topo.add_machine("a", lan);
  const auto b = topo.add_machine("b", lan);
  const netsim::Placement remote{a, b, &topo};

  CapabilityChain both_apply(
      {std::make_shared<QuotaCapability>(10, Scope::always),
       std::make_shared<QuotaCapability>(10, Scope::remote)});
  EXPECT_TRUE(both_apply.applicable(remote));

  CapabilityChain one_never(
      {std::make_shared<QuotaCapability>(10, Scope::always),
       std::make_shared<QuotaCapability>(10, Scope::never)});
  EXPECT_FALSE(one_never.applicable(remote));

  CapabilityChain empty;
  EXPECT_TRUE(empty.applicable(remote));  // vacuous AND
}

TEST(Chain, AdmissionRunsBeforeProcessing) {
  auto quota = std::make_shared<QuotaCapability>(0);  // always refuses
  CapabilityChain chain({quota, std::make_shared<MarkerCapability>(9)});
  wire::Buffer payload = payload_of("m");
  EXPECT_THROW(chain.process_outbound(payload, make_call()), CapabilityDenied);
  // Payload untouched: no capability processed it.
  EXPECT_EQ(payload.bytes(), bytes_of("m"));
}

TEST(Chain, DescribeListsKinds) {
  CapabilityChain chain({std::make_shared<QuotaCapability>(1),
                         std::make_shared<ChecksumCapability>()});
  EXPECT_EQ(chain.describe(), "quota,checksum");
  EXPECT_EQ(chain.descriptors().size(), 2u);
}

// ---- stream steps: one sweep, the bytes of one capability at a time ----------

Bytes seeded_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.next());
  return out;
}

// What `capabilities` make of `payload` run one process() at a time.
Bytes processed_one_at_a_time(const std::vector<CapabilityPtr>& capabilities,
                              const Bytes& payload, const CallContext& call) {
  wire::Buffer buf{Bytes(payload)};
  for (const auto& capability : capabilities) capability->process(buf, call);
  return buf.release();
}

// The chain's two forms: in place on one buffer, or out of place from a
// view into a buffer whose stale bytes it replaces.
enum class Form { in_place, out_of_place };

Bytes seal_payload(CapabilityChain& chain, const Bytes& payload,
                   const CallContext& call, Form form) {
  if (form == Form::in_place) {
    wire::Buffer buf{Bytes(payload)};
    chain.process_outbound(buf, call);
    return buf.release();
  }
  wire::Buffer out{bytes_of("stale")};
  chain.process_outbound(BytesView(payload), out, call);
  return out.release();
}

Bytes open_sealed(CapabilityChain& chain, const Bytes& sealed,
                  const CallContext& call, Form form) {
  if (form == Form::in_place) {
    wire::Buffer buf{Bytes(sealed)};
    chain.process_inbound(buf, call);
    return buf.release();
  }
  wire::Buffer out{bytes_of("stale")};
  chain.process_inbound(BytesView(sealed), out, call);
  return out.release();
}

// The message open_sealed() must fail with: AuthenticationCapability's own.
std::string auth_failure(CapabilityChain& chain, const Bytes& sealed,
                         const CallContext& call, Form form) {
  try {
    (void)open_sealed(chain, sealed, call, form);
  } catch (const CapabilityDenied& e) {
    EXPECT_EQ(e.code(), ErrorCode::capability_auth_failed);
    return e.what();
  }
  return "accepted";
}

// Positions a one-bit flip is tried at: every byte of a short sealed
// payload, and for a long one the ends, the last whole word and the
// partial word after it (where the sweep hands over to the byte path),
// the tag, and a few in between.
std::vector<std::size_t> flip_positions(std::size_t sealed_size) {
  std::vector<std::size_t> at;
  if (sealed_size <= 2048) {
    for (std::size_t i = 0; i < sealed_size; ++i) at.push_back(i);
    return at;
  }
  const std::size_t body = sealed_size - crypto::kMacTagSize;
  const std::size_t whole = body - body % 8;
  for (std::size_t i = 0; i < 9; ++i) at.push_back(i);
  for (std::size_t i = whole - 9; i < sealed_size; ++i) at.push_back(i);
  for (std::size_t i = 1; i < 8; ++i) at.push_back(sealed_size / 8 * i + i);
  return at;
}

TEST(StreamSweep, AuthenticationThenEncryptionMatchesOneAtATime) {
  const auto auth =
      std::make_shared<AuthenticationCapability>(test_key(), "sweep",
                                                 Scope::always);
  const auto enc =
      std::make_shared<EncryptionCapability>(crypto::Key128::from_seed(77));
  const std::vector<CapabilityPtr> members{auth, enc};
  CapabilityChain chain(members);
  const std::string mismatch =
      "authentication tag mismatch for principal 'sweep'";

  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 32; ++n) lengths.push_back(n);
  lengths.push_back(1029);
  lengths.push_back(262147);

  for (const std::size_t n : lengths) {
    const Bytes payload = seeded_bytes(n, 0x5eed + n);
    for (const Direction direction : {Direction::request, Direction::reply}) {
      const CallContext call = make_call(1000 + n, direction);
      const Bytes expected = processed_one_at_a_time(members, payload, call);
      ASSERT_EQ(expected.size(), n + crypto::kMacTagSize);
      for (const Form form : {Form::in_place, Form::out_of_place}) {
        SCOPED_TRACE(::testing::Message()
                     << "length " << n << ", "
                     << (direction == Direction::request ? "request"
                                                         : "reply")
                     << ", "
                     << (form == Form::in_place ? "in place" : "out of place"));
        const Bytes sealed = seal_payload(chain, payload, call, form);
        ASSERT_EQ(sealed, expected);
        EXPECT_EQ(open_sealed(chain, sealed, call, form), payload);

        for (const std::size_t at : flip_positions(sealed.size())) {
          Bytes tampered = sealed;
          tampered[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
          ASSERT_EQ(auth_failure(chain, tampered, call, form), mismatch)
              << "bit flipped at byte " << at;
        }
      }
    }
  }
}

TEST(StreamSweep, PayloadShorterThanTheTagFailsAsOneAtATime) {
  const std::vector<CapabilityPtr> members{
      std::make_shared<AuthenticationCapability>(test_key(), "sweep",
                                                 Scope::always),
      std::make_shared<EncryptionCapability>(test_key())};
  CapabilityChain chain(members);
  const CallContext call = make_call(5);
  for (std::size_t n = 0; n < crypto::kMacTagSize; ++n) {
    const Bytes sealed = seeded_bytes(n, n);
    // One capability at a time: the keystream comes off, then the
    // authentication refuses.
    wire::Buffer one_at_a_time{Bytes(sealed)};
    std::string expected;
    try {
      members[1]->unprocess(one_at_a_time, call);
      members[0]->unprocess(one_at_a_time, call);
    } catch (const CapabilityDenied& e) {
      EXPECT_EQ(e.code(), ErrorCode::capability_auth_failed);
      expected = e.what();
    }
    EXPECT_EQ(expected, "payload too short for auth tag");
    for (const Form form : {Form::in_place, Form::out_of_place}) {
      EXPECT_EQ(auth_failure(chain, sealed, call, form), expected)
          << "length " << n;
    }
  }
}

// Random chains mixing the stream capabilities (either order, adjacent or
// apart, alone) with capabilities that run their own process(): in both
// forms the chain's bytes are those of one capability at a time, and
// inbound restores the payload.
TEST(StreamSweep, MixedChainsMatchOneAtATimeInBothForms) {
  Xoshiro256 rng(0x5ee9);
  for (int round = 0; round < 200; ++round) {
    std::vector<CapabilityPtr> members;
    const std::size_t length = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < length; ++i) {
      switch (rng.next_below(5)) {
        case 0:
          members.push_back(std::make_shared<EncryptionCapability>(
              crypto::Key128::from_seed(rng.next())));
          break;
        case 1:
          members.push_back(std::make_shared<AuthenticationCapability>(
              crypto::Key128::from_seed(rng.next()), "mixed",
              Scope::always));
          break;
        case 2:
          members.push_back(std::make_shared<ChecksumCapability>());
          break;
        case 3:
          members.push_back(std::make_shared<QuotaCapability>(1000));
          break;
        default:
          members.push_back(
              std::make_shared<PaddingCapability>(1 + rng.next_below(40)));
          break;
      }
    }
    CapabilityChain chain(members);
    const Bytes payload = seeded_bytes(rng.next_below(300), rng.next());
    const CallContext call = make_call(
        rng.next(), rng.next_below(2) == 0 ? Direction::request
                                           : Direction::reply);
    const Bytes expected = processed_one_at_a_time(members, payload, call);
    for (const Form form : {Form::in_place, Form::out_of_place}) {
      const Bytes sealed = seal_payload(chain, payload, call, form);
      ASSERT_EQ(sealed, expected) << "chain " << chain.describe();
      EXPECT_EQ(open_sealed(chain, sealed, call, form), payload)
          << "chain " << chain.describe();
    }
  }
}

// ---- parameterized chain composition sweep ---------------------------------------------

class ChainComposition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainComposition, RandomChainsAreIdentity) {
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    CapabilityChain chain;
    const std::size_t length = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < length; ++i) {
      switch (rng.next_below(6)) {
        case 0:
          chain.add(std::make_shared<EncryptionCapability>(test_key()));
          break;
        case 1:
          chain.add(std::make_shared<AuthenticationCapability>(
              test_key(), "fuzz", Scope::always));
          break;
        case 2:
          chain.add(std::make_shared<ChecksumCapability>());
          break;
        case 3:
          chain.add(std::make_shared<CompressionCapability>(
              rng.next_below(2) == 0 ? compress::CodecId::rle
                                     : compress::CodecId::lz));
          break;
        case 4:
          chain.add(std::make_shared<PaddingCapability>(
              1 + rng.next_below(300)));
          break;
        default:
          chain.add(std::make_shared<AuditCapability>());
          break;
      }
    }

    Bytes original(rng.next_below(4096));
    for (auto& byte : original) byte = static_cast<std::uint8_t>(rng.next());

    const auto call = make_call(rng.next());
    wire::Buffer payload{Bytes(original)};
    chain.process_outbound(payload, call);
    chain.process_inbound(payload, call);
    EXPECT_EQ(payload.bytes(), original) << "chain: " << chain.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainComposition,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ohpx::cap
