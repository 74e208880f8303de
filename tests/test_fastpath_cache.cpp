// Fast-path selection cache: the adaptivity contract under memoization.
//
// The paper's rule is per-request re-evaluation (§3.2); CallCore memoizes
// the selection keyed on (location epoch, pool generation, endpoint
// registry generation).  These tests pin the contract: after *any* event
// the paper says must change the outcome — a migration republish, a
// proto-pool edit, an endpoint bound or unbound — the very next call
// re-selects.  No call is ever served by a stale protocol or handler,
// with the cache enabled (the default) or disabled (the literal-paper
// baseline).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;

std::uint64_t hits() {
  return metrics::MetricsRegistry::global().counter("rmi.select.cache_hit");
}
std::uint64_t misses() {
  return metrics::MetricsRegistry::global().counter("rmi.select.cache_miss");
}

// Mirrors the Figure 3 topology: server + near client share a LAN (and a
// machine, so shm is in play), the far client sits on another LAN behind
// a cross-LAN authentication glue.
class FastpathCache : public ::testing::Test {
 protected:
  void SetUp() override {
    lan1_ = world_.add_lan("lan-1");
    lan2_ = world_.add_lan("lan-2");
    m_server_ = world_.add_machine("s0-box", lan1_);
    m_far_ = world_.add_machine("far-box", lan2_);
    m_far2_ = world_.add_machine("far-box-2", lan2_);

    server_ctx_ = &world_.create_context(m_server_);
    near_ctx_ = &world_.create_context(m_server_);  // same machine: shm
    far_ctx_ = &world_.create_context(m_far_);

    auto auth = std::make_shared<cap::AuthenticationCapability>(
        crypto::Key128::from_seed(0xfa57), "fastpath", cap::Scope::cross_lan);
    ref_ = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
               .glue({auth}, "nexus-tcp")
               .shm()
               .nexus()
               .build();
  }

  runtime::World world_;
  netsim::LanId lan1_{}, lan2_{};
  netsim::MachineId m_server_{}, m_far_{}, m_far2_{};
  orb::Context* server_ctx_ = nullptr;
  orb::Context* near_ctx_ = nullptr;
  orb::Context* far_ctx_ = nullptr;
  orb::ObjectRef ref_;
};

TEST_F(FastpathCache, RepeatedCallsHitTheCache) {
  EchoPointer near(*near_ctx_, ref_);
  const std::uint64_t h0 = hits();
  const std::uint64_t m0 = misses();

  near->ping();  // fill
  EXPECT_EQ(near->last_protocol(), "shm");
  for (int i = 0; i < 8; ++i) near->ping();

  EXPECT_EQ(misses() - m0, 1u) << "only the first call may re-select";
  EXPECT_EQ(hits() - h0, 8u);
}

TEST_F(FastpathCache, MigrationReselectsOnTheVeryNextCall) {
  EchoPointer near(*near_ctx_, ref_);

  // Warm the cache on the colocated fast path.
  near->ping();
  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  const std::uint64_t epoch_before =
      world_.location().epoch_of(ref_.object_id());

  // Migrate the servant to the far LAN (a machine the far client does
  // not share, so shm stays out of play for it).  The republish bumps
  // the epoch; the near client's cached (shm) selection must die with it.
  orb::Context& new_home = world_.create_context(m_far2_);
  runtime::migrate_shared(ref_.object_id(), *server_ctx_, new_home);
  EXPECT_GT(world_.location().epoch_of(ref_.object_id()), epoch_before);

  // Very next call: the near client is now cross-LAN, so the preferred
  // authenticated glue entry applies — served by the *new* home.
  near->ping();
  EXPECT_EQ(near->last_protocol(), "glue[authentication]->nexus-tcp");

  // And the swap is symmetric, exactly as in Figure 3: the far client
  // is now LAN-local to the object and drops down to plain nexus.
  EchoPointer far(*far_ctx_, ref_);
  far->ping();
  EXPECT_EQ(far->last_protocol(), "nexus-tcp");
}

TEST_F(FastpathCache, MigrationReselectsWithCacheDisabledToo) {
  // The literal-paper baseline must behave identically (it is the
  // benchmark's control arm, not a different semantics).
  EchoPointer near(*near_ctx_, ref_);
  near->set_selection_cache(false);

  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  orb::Context& new_home = world_.create_context(m_far_);
  runtime::migrate_shared(ref_.object_id(), *server_ctx_, new_home);

  near->ping();
  EXPECT_EQ(near->last_protocol(), "glue[authentication]->nexus-tcp");
}

TEST_F(FastpathCache, PoolEditReselectsOnTheVeryNextCall) {
  EchoPointer near(*near_ctx_, ref_);

  near->ping();
  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  // User control over selection (§3.2): deny shm mid-stream.  The pool
  // generation bump must invalidate the memoized choice immediately.
  const std::uint64_t gen_before = near_ctx_->pool().generation();
  near_ctx_->pool().disable("shm");
  EXPECT_GT(near_ctx_->pool().generation(), gen_before);

  near->ping();
  EXPECT_EQ(near->last_protocol(), "nexus-tcp");

  // Re-allowing flips it straight back (enable bumps the generation too).
  near_ctx_->pool().enable("shm");
  near->ping();
  EXPECT_EQ(near->last_protocol(), "shm");
}

TEST_F(FastpathCache, RedundantPoolEditsDoNotInvalidate) {
  EchoPointer near(*near_ctx_, ref_);
  near->ping();

  // enable() of an already-allowed name and disable() of an absent one
  // change nothing, so they must not bump the generation (no spurious
  // cache misses from idempotent edits).
  const std::uint64_t gen = near_ctx_->pool().generation();
  near_ctx_->pool().enable("shm");
  near_ctx_->pool().disable("no-such-protocol");
  EXPECT_EQ(near_ctx_->pool().generation(), gen);

  const std::uint64_t h0 = hits();
  near->ping();
  EXPECT_EQ(hits() - h0, 1u);
}

TEST_F(FastpathCache, ProbeProtocolNeverConsultsTheCache) {
  EchoPointer near(*near_ctx_, ref_);
  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  // probe_protocol() is the diagnostic "what would be selected now" — it
  // must reflect a pool edit even before the next real call refreshes
  // the cache.
  near_ctx_->pool().disable("shm");
  EXPECT_EQ(near->probe_protocol(), "nexus-tcp");
}

TEST_F(FastpathCache, CacheToggleRoundTrip) {
  EchoPointer near(*near_ctx_, ref_);
  near->ping();

  near->set_selection_cache(false);
  const std::uint64_t h0 = hits();
  const std::uint64_t m0 = misses();
  for (int i = 0; i < 4; ++i) near->ping();
  EXPECT_EQ(hits() - h0, 0u) << "disabled cache must never serve a hit";
  EXPECT_EQ(misses() - m0, 0u) << "miss counter tracks cache-on calls only";

  // Re-enabling starts cold: one miss to refill, then hits again.
  near->set_selection_cache(true);
  near->ping();
  near->ping();
  EXPECT_EQ(misses() - m0, 1u);
  EXPECT_EQ(hits() - h0, 1u);
}

// A request handler that serves through `context` and counts what it
// serves.
transport::RequestHandler counting(orb::Context& context,
                                   std::atomic<std::uint64_t>& served) {
  return [&context, &served](const wire::MessageHeader& header,
                             BytesView body) {
    served.fetch_add(1, std::memory_order_relaxed);
    return context.dispatch(header, body);
  };
}

TEST_F(FastpathCache, RebindServesTheVeryNextCall) {
  auto& registry = transport::EndpointRegistry::instance();
  const std::string& endpoint = server_ctx_->endpoint_name();
  const transport::EndpointHandle original = registry.find(endpoint);
  EchoPointer near(*near_ctx_, ref_);
  near->ping();
  const std::uint64_t h0 = hits();
  near->ping();
  ASSERT_EQ(hits() - h0, 1u) << "the selection is memoized";
  ASSERT_EQ(near->last_protocol(), "shm");

  std::atomic<std::uint64_t> served{0};
  registry.bind(endpoint, counting(*server_ctx_, served));
  EXPECT_EQ(near->ping(), 3u);
  EXPECT_EQ(served.load(), 1u) << "the new handler serves the next call";

  registry.unbind(endpoint);
  try {
    near->ping();
    ADD_FAILURE() << "no handler is bound to " << endpoint;
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_unknown_endpoint);
  }
  EXPECT_EQ(served.load(), 1u) << "the unbound handler was called";

  registry.bind(endpoint, *original);
  EXPECT_EQ(near->ping(), 4u);
}

TEST_F(FastpathCache, NameBoundAfterAFailedCallServesTheNextCall) {
  // Late binding, which migration depends on: a name nothing serves
  // fails the call, and binding it afterwards makes the same reference
  // work on its next call.
  auto& registry = transport::EndpointRegistry::instance();
  const std::string& endpoint = server_ctx_->endpoint_name();
  const transport::EndpointHandle original = registry.find(endpoint);
  registry.unbind(endpoint);
  EchoPointer near(*near_ctx_, ref_);
  EXPECT_THROW(near->ping(), TransportError);

  registry.bind(endpoint, *original);
  EXPECT_EQ(near->ping(), 1u);
  EXPECT_EQ(near->last_protocol(), "shm");
}

TEST_F(FastpathCache, RebindingUnderMemoizedCallsLosesNoCall) {
  auto& registry = transport::EndpointRegistry::instance();
  const std::string& endpoint = server_ctx_->endpoint_name();
  const transport::EndpointHandle original = registry.find(endpoint);
  const auto servant = std::make_shared<EchoServant>();
  const orb::ObjectRef ref =
      orb::RefBuilder(*server_ctx_, servant).shm().build();
  std::atomic<std::uint64_t> served_a{0};
  std::atomic<std::uint64_t> served_b{0};
  const transport::RequestHandler a = counting(*server_ctx_, served_a);
  const transport::RequestHandler b = counting(*server_ctx_, served_b);
  registry.bind(endpoint, a);

  // Callers make memoized shm calls while this thread flips the
  // server's endpoint between two serving handlers, from after every
  // caller memoized its first selection.
  constexpr int kCallers = 3;
  std::atomic<int> memoized{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> succeeded{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      EchoPointer gp(*near_ctx_, ref);
      for (bool first = true; !stop.load(std::memory_order_relaxed);
           first = false) {
        try {
          gp->ping();
          succeeded.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) memoized.fetch_add(1);
      }
    });
  }
  while (memoized.load() < kCallers) std::this_thread::yield();
  constexpr int kMaxFlips = 1'000'000;
  int flips = 0;
  while (flips < kMaxFlips &&
         (flips < 200 || served_a.load() == 0 || served_b.load() == 0)) {
    registry.bind(endpoint, ++flips % 2 == 0 ? a : b);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& caller : callers) caller.join();
  registry.bind(endpoint, *original);

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(served_a.load(), 0u);
  EXPECT_GT(served_b.load(), 0u);
  EXPECT_EQ(served_a.load() + served_b.load(), succeeded.load())
      << "every call was served by one of the two handlers";
  EXPECT_EQ(servant->pings(), succeeded.load());
}

}  // namespace
}  // namespace ohpx
