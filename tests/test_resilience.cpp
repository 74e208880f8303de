// Resilience layer (docs/resilience.md): deadline budgets minted at the
// stub and enforced at every pipeline stage, policy-driven retry with a
// deterministic backoff schedule, per-protocol-entry circuit breakers that
// fail a call over to the next OR-table entry, and the seeded fault plans
// the chaos harness is built on.  Every time-dependent path here runs on
// an installed ManualClock — no wall-clock sleeps anywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/orb/servant.hpp"
#include "ohpx/resilience/breaker.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/resilience/fault_plan.hpp"
#include "ohpx/resilience/retry.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/channel.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;
using namespace std::chrono_literals;

constexpr std::int64_t kMs = 1'000'000;

// ---- deadline arithmetic ----------------------------------------------------------

TEST(Deadline, ExpiryAndRemainingOnTheInstalledClock) {
  resilience::ScopedManualClock scoped(/*start_ns=*/100);

  EXPECT_TRUE(resilience::deadline_expired(50));
  EXPECT_TRUE(resilience::deadline_expired(100)) << "expiry is inclusive";
  EXPECT_FALSE(resilience::deadline_expired(150));
  EXPECT_FALSE(resilience::deadline_expired(resilience::kNoDeadline))
      << "the sentinel never expires";

  EXPECT_EQ(resilience::deadline_remaining(150).count(), 50);
  EXPECT_EQ(resilience::deadline_remaining(40).count(), 0)
      << "remaining is clamped at zero";
  EXPECT_GT(resilience::deadline_remaining(resilience::kNoDeadline),
            std::chrono::hours(1));
}

TEST(Deadline, TightenPrefersTheEarlierRealDeadline) {
  using resilience::kNoDeadline;
  using resilience::tighten_deadline;
  EXPECT_EQ(tighten_deadline(kNoDeadline, kNoDeadline), kNoDeadline);
  EXPECT_EQ(tighten_deadline(kNoDeadline, 70), 70);
  EXPECT_EQ(tighten_deadline(70, kNoDeadline), 70);
  EXPECT_EQ(tighten_deadline(70, 90), 70);
  EXPECT_EQ(tighten_deadline(90, 70), 70);
}

TEST(Deadline, ScopeTightensButNeverExtendsAndRestores) {
  ASSERT_EQ(resilience::current_deadline_ns(), resilience::kNoDeadline);
  {
    resilience::DeadlineScope outer(100);
    EXPECT_EQ(resilience::current_deadline_ns(), 100);
    {
      resilience::DeadlineScope looser(200);
      EXPECT_EQ(resilience::current_deadline_ns(), 100)
          << "a nested call cannot extend its caller's budget";
    }
    {
      resilience::DeadlineScope tighter(50);
      EXPECT_EQ(resilience::current_deadline_ns(), 50);
    }
    EXPECT_EQ(resilience::current_deadline_ns(), 100);
  }
  EXPECT_EQ(resilience::current_deadline_ns(), resilience::kNoDeadline);
}

// ---- retry policy -----------------------------------------------------------------

TEST(Retry, ClassificationIsFixed) {
  // Transient: channel faults, corruption caught by a checksum, migration
  // races.
  for (const ErrorCode code :
       {ErrorCode::transport_closed, ErrorCode::transport_connect_failed,
        ErrorCode::transport_io, ErrorCode::transport_unknown_endpoint,
        ErrorCode::wire_truncated, ErrorCode::wire_bad_checksum,
        ErrorCode::capability_bad_payload, ErrorCode::stale_reference}) {
    EXPECT_TRUE(resilience::is_retryable(code)) << to_string(code);
  }
  // Final answers: refusals of authority, missing objects, expired budget.
  for (const ErrorCode code :
       {ErrorCode::capability_denied, ErrorCode::capability_expired,
        ErrorCode::capability_exhausted, ErrorCode::capability_auth_failed,
        ErrorCode::object_not_found, ErrorCode::method_not_found,
        ErrorCode::deadline_exceeded, ErrorCode::remote_application_error}) {
    EXPECT_FALSE(resilience::is_retryable(code)) << to_string(code);
  }
}

TEST(Retry, BackoffSequenceIsExponentialAndCapped) {
  resilience::RetryPolicy policy;
  policy.initial_backoff = 1ms;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 8ms;
  policy.jitter = 0.0;

  resilience::BackoffSchedule schedule(policy);
  EXPECT_EQ(schedule.next().count(), 1 * kMs);
  EXPECT_EQ(schedule.next().count(), 2 * kMs);
  EXPECT_EQ(schedule.next().count(), 4 * kMs);
  EXPECT_EQ(schedule.next().count(), 8 * kMs);
  EXPECT_EQ(schedule.next().count(), 8 * kMs) << "capped at max_backoff";
}

TEST(Retry, JitteredBackoffIsAPureFunctionOfTheSeed) {
  resilience::RetryPolicy policy;
  policy.initial_backoff = 1ms;
  policy.max_backoff = 100ms;
  policy.jitter = 0.5;
  policy.seed = 0xfeedULL;

  const auto sequence_of = [](const resilience::RetryPolicy& p) {
    resilience::BackoffSchedule schedule(p);
    std::vector<std::int64_t> out;
    for (int i = 0; i < 6; ++i) out.push_back(schedule.next().count());
    return out;
  };

  const auto first = sequence_of(policy);
  EXPECT_EQ(first, sequence_of(policy))
      << "same (policy, seed) => identical backoff sequence";

  resilience::RetryPolicy reseeded = policy;
  reseeded.seed = 0xfeedULL + 1;
  EXPECT_NE(first, sequence_of(reseeded));

  // Every jittered delay stays inside [delay*(1-j), delay*(1+j)].
  double nominal = 1.0 * kMs;
  for (const std::int64_t delay : first) {
    EXPECT_GE(delay, static_cast<std::int64_t>(nominal * 0.5) - 1);
    EXPECT_LE(delay, static_cast<std::int64_t>(nominal * 1.5) + 1);
    nominal = std::min(nominal * 2.0, 100.0 * kMs);
  }
}

TEST(Retry, InnermostScopeWinsAndEditsBumpTheRevision) {
  resilience::RetryOverride core;
  resilience::RetryOverride context;

  EXPECT_EQ(resilience::resolve_retry_policy(core, context),
            resilience::RetryPolicy{});

  resilience::RetryPolicy global_policy;
  global_policy.max_attempts = 7;
  const std::uint64_t before = resilience::retry_policy_revision();
  resilience::set_global_retry_policy(global_policy);
  EXPECT_GT(resilience::retry_policy_revision(), before)
      << "memoized resolutions must notice the edit";
  EXPECT_EQ(resilience::resolve_retry_policy(core, context).max_attempts, 7);

  resilience::RetryPolicy context_policy;
  context_policy.max_attempts = 5;
  context.set(context_policy);
  EXPECT_EQ(resilience::resolve_retry_policy(core, context).max_attempts, 5);

  resilience::RetryPolicy core_policy;
  core_policy.max_attempts = 2;
  core.set(core_policy);
  EXPECT_EQ(resilience::resolve_retry_policy(core, context).max_attempts, 2)
      << "per-GP beats per-context beats global";

  core.clear();
  EXPECT_EQ(resilience::resolve_retry_policy(core, context).max_attempts, 5);
  context.clear();
  resilience::clear_global_retry_policy();
  EXPECT_EQ(resilience::resolve_retry_policy(core, context),
            resilience::RetryPolicy{});
}

// ---- circuit breaker --------------------------------------------------------------

TEST(Breaker, TripCooldownProbeClose) {
  resilience::ScopedManualClock scoped;
  resilience::BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown = 100ms;
  resilience::CircuitBreaker breaker(config);
  using State = resilience::CircuitBreaker::State;
  using Transition = resilience::CircuitBreaker::Transition;

  bool admitted = false;
  EXPECT_EQ(breaker.allow(admitted), Transition::none);
  EXPECT_TRUE(admitted);
  EXPECT_EQ(breaker.state(), State::closed);

  EXPECT_EQ(breaker.on_failure(), Transition::none) << "below the threshold";
  EXPECT_EQ(breaker.on_failure(), Transition::opened);
  EXPECT_EQ(breaker.state(), State::open);

  breaker.allow(admitted);
  EXPECT_FALSE(admitted) << "open entries are inapplicable during cooldown";

  scoped.clock().advance(99ms);
  breaker.allow(admitted);
  EXPECT_FALSE(admitted);

  scoped.clock().advance(1ms);
  EXPECT_EQ(breaker.allow(admitted), Transition::probing);
  EXPECT_TRUE(admitted) << "cooldown elapsed: one probe is admitted";
  EXPECT_EQ(breaker.state(), State::half_open);

  bool second = true;
  EXPECT_EQ(breaker.allow(second), Transition::none);
  EXPECT_FALSE(second) << "only one probe may be in flight";

  EXPECT_EQ(breaker.on_success(), Transition::closed);
  EXPECT_EQ(breaker.state(), State::closed);
  breaker.allow(admitted);
  EXPECT_TRUE(admitted);
}

TEST(Breaker, FailedProbeReopensAndRestartsTheCooldown) {
  resilience::ScopedManualClock scoped;
  resilience::BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = 50ms;
  resilience::CircuitBreaker breaker(config);
  using State = resilience::CircuitBreaker::State;
  using Transition = resilience::CircuitBreaker::Transition;

  EXPECT_EQ(breaker.on_failure(), Transition::opened);
  scoped.clock().advance(50ms);
  bool admitted = false;
  EXPECT_EQ(breaker.allow(admitted), Transition::probing);
  ASSERT_TRUE(admitted);

  EXPECT_EQ(breaker.on_failure(), Transition::opened) << "probe failed";
  EXPECT_EQ(breaker.state(), State::open);
  breaker.allow(admitted);
  EXPECT_FALSE(admitted) << "the cooldown restarted at the failed probe";
  scoped.clock().advance(50ms);
  breaker.allow(admitted);
  EXPECT_TRUE(admitted);
  EXPECT_EQ(breaker.on_success(), Transition::closed);
}

TEST(Breaker, DisabledConfigIsInert) {
  resilience::CircuitBreaker breaker(resilience::BreakerConfig{});
  using Transition = resilience::CircuitBreaker::Transition;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(breaker.on_failure(), Transition::none);
  }
  bool admitted = false;
  EXPECT_EQ(breaker.allow(admitted), Transition::none);
  EXPECT_TRUE(admitted);
  EXPECT_EQ(breaker.state(), resilience::CircuitBreaker::State::closed);
}

// ---- fault plans ------------------------------------------------------------------

TEST(FaultPlan, ScriptedFaultsHitTheirExactCallIndices) {
  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::drop},
                       {2, resilience::FaultKind::corrupt}};
  plan.add("ep", schedule);
  auto& injector = resilience::FaultInjector::instance();
  ASSERT_TRUE(injector.active());

  EXPECT_EQ(injector.decide("ep").kind, resilience::FaultKind::drop);
  EXPECT_EQ(injector.decide("ep").kind, resilience::FaultKind::none);
  EXPECT_EQ(injector.decide("ep").kind, resilience::FaultKind::corrupt);
  EXPECT_EQ(injector.call_count("ep"), 3u);

  EXPECT_EQ(injector.decide("elsewhere").kind, resilience::FaultKind::none)
      << "unscheduled endpoints are counted but never faulted";
  EXPECT_EQ(injector.call_count("elsewhere"), 1u);
  EXPECT_EQ(injector.total_calls(), 4u);
}

TEST(FaultPlan, SeededStreamsAreReproduciblePerEndpoint) {
  resilience::FaultSchedule schedule;
  schedule.drop_rate = 0.2;
  schedule.corrupt_rate = 0.2;
  schedule.seed = 42;

  const auto stream_of = [&](const std::string& endpoint) {
    resilience::FaultInjector::instance().set_plan(endpoint, schedule);
    std::vector<resilience::FaultKind> kinds;
    for (int i = 0; i < 64; ++i) {
      kinds.push_back(resilience::FaultInjector::instance().decide(endpoint).kind);
    }
    return kinds;
  };

  resilience::ScopedFaultPlan plan;
  const auto first = stream_of("ep-a");
  EXPECT_EQ(first, stream_of("ep-a"))
      << "set_plan resets the stream; same seed => same fault sequence";
  EXPECT_NE(first, stream_of("ep-b"))
      << "the endpoint name is mixed into the seed";
  EXPECT_GT(std::count(first.begin(), first.end(),
                       resilience::FaultKind::none),
            0);
  EXPECT_LT(std::count(first.begin(), first.end(),
                       resilience::FaultKind::none),
            64);
}

// ---- pipeline integration ---------------------------------------------------------

// Client and server on different machines of one LAN, so nexus-tcp (the
// sim transport) carries every call and the fault injector can reach it.
class ResilienceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    lan_ = world_.add_lan("lan");
    m_client_ = world_.add_machine("client", lan_);
    m_server_ = world_.add_machine("server", lan_);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
  }

  orb::ObjectRef make_echo_ref() {
    servant_ = std::make_shared<EchoServant>();
    return orb::RefBuilder(*server_ctx_, servant_).nexus().build();
  }

  static std::uint64_t counter(const char* name) {
    return metrics::MetricsRegistry::global().counter(name);
  }

  /// Replaces the server's in-proc endpoint handler; returns the original
  /// so tests can restore it (or wrap it).
  transport::FrameHandler sabotage_endpoint(transport::FrameHandler handler) {
    auto& registry = transport::EndpointRegistry::instance();
    const transport::FrameHandler original =
        registry.lookup(server_ctx_->endpoint_name());
    registry.bind(server_ctx_->endpoint_name(), std::move(handler));
    return original;
  }

  void restore_endpoint(const transport::FrameHandler& original) {
    transport::EndpointRegistry::instance().bind(server_ctx_->endpoint_name(),
                                                 original);
  }

  runtime::World world_;
  netsim::LanId lan_{};
  netsim::MachineId m_client_{}, m_server_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
  std::shared_ptr<EchoServant> servant_;
};

TEST_F(ResilienceFixture, DeadlineStopsTheRetryLoop) {
  resilience::ScopedManualClock scoped;
  EchoPointer gp(*client_ctx_, make_echo_ref());
  gp->set_deadline_budget(1ms);

  // Every attempt eats 2ms of virtual time and dies in the transport: the
  // first retry finds the 1ms budget spent and gives up with
  // deadline_exceeded instead of retrying forever.
  const auto original = sabotage_endpoint(
      [&scoped](const wire::Buffer&) -> wire::Buffer {
        scoped.clock().advance(2ms);
        throw TransportError(ErrorCode::transport_closed, "injected outage");
      });

  const std::uint64_t deadline_before = counter("rmi.deadline_exceeded");
  try {
    gp->ping();
    FAIL() << "the call cannot succeed";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.code(), ErrorCode::deadline_exceeded);
  }
  EXPECT_EQ(counter("rmi.deadline_exceeded"), deadline_before + 1);
  EXPECT_EQ(resilience::current_deadline_ns(), resilience::kNoDeadline)
      << "the minted deadline must not leak out of the call";

  restore_endpoint(original);
  EXPECT_EQ(gp->ping(), 1u) << "sabotage never reached the servant";
}

TEST_F(ResilienceFixture, ExpiredWireDeadlineRefusesServerDispatch) {
  resilience::ScopedManualClock scoped;
  EchoPointer gp(*client_ctx_, make_echo_ref());
  gp->set_deadline_budget(1ms);

  // The frame arrives "late": virtual time jumps past the carried deadline
  // before the server pipeline runs, so dispatch is refused server-side
  // and the error reply carries deadline_exceeded back.
  const transport::FrameHandler original =
      transport::EndpointRegistry::instance().lookup(
          server_ctx_->endpoint_name());
  sabotage_endpoint([&scoped, original](const wire::Buffer& frame) {
    scoped.clock().advance(2ms);
    return original(frame);
  });

  try {
    gp->ping();
    FAIL() << "the server must refuse to dispatch an expired call";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.code(), ErrorCode::deadline_exceeded);
  }
  EXPECT_EQ(servant_->pings(), 0u)
      << "expiry is checked before the servant runs";

  restore_endpoint(original);
  gp->set_deadline_budget(Nanoseconds{0});
  EXPECT_EQ(gp->ping(), 1u);
}

// Reads the ambient deadline inside servant dispatch — the observable for
// wire propagation and server-side adoption.
class DeadlineProbeServant final : public orb::Servant {
 public:
  static constexpr std::string_view kTypeName = "DeadlineProbe";
  static constexpr std::uint32_t kRead = 1;

  std::string_view type_name() const noexcept override { return kTypeName; }
  void dispatch(std::uint32_t method_id, wire::Decoder& in,
                wire::Encoder& out) override {
    (void)in;
    if (method_id != kRead) orb::unknown_method(kTypeName, method_id);
    orb::marshal_result(out, resilience::current_deadline_ns());
  }
};

class DeadlineProbeStub : public orb::ObjectStub {
 public:
  static constexpr std::string_view kTypeName = DeadlineProbeServant::kTypeName;
  using ObjectStub::ObjectStub;
  std::int64_t read_deadline() {
    return call<std::int64_t>(DeadlineProbeServant::kRead);
  }
};

TEST_F(ResilienceFixture, ServerAdoptsTheWireDeadlineAcrossThreads) {
  // TCP is the two-process shape: the server handles the frame on its
  // acceptor thread, so the ambient deadline can only arrive via the wire
  // extension — never via the client thread's thread-local.
  resilience::ScopedManualClock scoped;
  scoped.clock().set(1000);
  server_ctx_->enable_tcp();
  auto ref =
      orb::RefBuilder(*server_ctx_, std::make_shared<DeadlineProbeServant>())
          .tcp()
          .build();
  orb::GlobalPointer<DeadlineProbeStub> gp(*client_ctx_, ref);

  EXPECT_EQ(gp->read_deadline(), resilience::kNoDeadline)
      << "no budget, no header extension, no server-side deadline";

  gp->set_deadline_budget(5s);
  EXPECT_EQ(gp->read_deadline(), 1000 + 5'000'000'000)
      << "deadline = mint time + budget, adopted verbatim on the server";
}

TEST_F(ResilienceFixture, BreakerOpensAndSelectionFailsOverToTcp) {
  trace::TraceSink::global().set_sampling(trace::Sampling::always);
  trace::TraceSink::global().clear();

  server_ctx_->enable_tcp();
  servant_ = std::make_shared<EchoServant>();
  // Preference order: nexus-tcp (entry 0) then tcp (entry 1).
  auto ref = orb::RefBuilder(*server_ctx_, servant_).nexus().tcp().build();
  EchoPointer gp(*client_ctx_, ref);
  resilience::BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown = 100ms;
  gp->set_breaker_config(config);

  const auto original = sabotage_endpoint(
      [](const wire::Buffer&) -> wire::Buffer {
        throw TransportError(ErrorCode::transport_closed, "nexus is down");
      });

  // Attempt 1 and 2 burn the nexus entry's threshold; attempt 3 (the last
  // of the default 3-attempt policy) finds the entry open, skips it, and
  // lands on tcp — the call still succeeds.
  const std::uint64_t retries_before = counter("rmi.retries");
  const std::uint64_t opened_before = counter("rmi.breaker.opened");
  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(gp->last_protocol(), "tcp");
  EXPECT_EQ(gp->breaker_state(0), resilience::CircuitBreaker::State::open);
  EXPECT_EQ(gp->breaker_state(1), resilience::CircuitBreaker::State::closed);
  EXPECT_EQ(counter("rmi.retries"), retries_before + 2);
  EXPECT_EQ(counter("rmi.breaker.opened"), opened_before + 1);

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  std::size_t open_events = 0;
  for (const auto& span : snap.spans) {
    if (std::string_view(span.name) == "breaker.open") ++open_events;
  }
  EXPECT_EQ(open_events, 1u);

  restore_endpoint(original);
  trace::TraceSink::global().set_sampling(trace::Sampling::off);
  trace::TraceSink::global().clear();
}

TEST_F(ResilienceFixture, BreakerRecoversAfterCooldownProbe) {
  resilience::ScopedManualClock scoped;
  server_ctx_->enable_tcp();
  servant_ = std::make_shared<EchoServant>();
  auto ref = orb::RefBuilder(*server_ctx_, servant_).nexus().tcp().build();
  EchoPointer gp(*client_ctx_, ref);
  // The selection cache would pin the failover winner until the next
  // invalidation (see docs/resilience.md); disable it so every call
  // re-evaluates the table and the recovered entry gets its probe.
  gp->set_selection_cache(false);
  resilience::BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = 100ms;
  gp->set_breaker_config(config);

  const auto original = sabotage_endpoint(
      [](const wire::Buffer&) -> wire::Buffer {
        throw TransportError(ErrorCode::transport_closed, "nexus is down");
      });

  EXPECT_EQ(gp->ping(), 1u) << "first attempt trips the breaker, retry "
                               "fails over to tcp";
  EXPECT_EQ(gp->last_protocol(), "tcp");
  EXPECT_EQ(gp->breaker_state(0), resilience::CircuitBreaker::State::open);

  // The endpoint heals, but the cooldown has not elapsed: calls keep
  // avoiding the tripped entry.
  restore_endpoint(original);
  EXPECT_EQ(gp->ping(), 2u);
  EXPECT_EQ(gp->last_protocol(), "tcp");

  // Cooldown elapses on the virtual clock: the next call is admitted as
  // the half-open probe, succeeds, and closes the breaker — traffic is
  // back on the preferred entry with no configuration change.
  scoped.clock().advance(100ms);
  EXPECT_EQ(gp->ping(), 3u);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
  EXPECT_EQ(gp->breaker_state(0), resilience::CircuitBreaker::State::closed);
  EXPECT_EQ(gp->ping(), 4u);
  EXPECT_EQ(gp->last_protocol(), "nexus-tcp");
}

TEST_F(ResilienceFixture, ScriptedDropIsRetriedTransparently) {
  EchoPointer gp(*client_ctx_, make_echo_ref());
  EXPECT_EQ(gp->ping(), 1u);  // warm the selection cache

  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::drop}};
  plan.add(server_ctx_->endpoint_name(), schedule);

  const std::uint64_t retries_before = counter("rmi.retries");
  EXPECT_EQ(gp->ping(), 2u) << "the drop is absorbed by one retry";
  EXPECT_EQ(counter("rmi.retries"), retries_before + 1);
  EXPECT_EQ(resilience::FaultInjector::instance().call_count(
                server_ctx_->endpoint_name()),
            2u)
      << "retry amplification: 2 wire attempts for 1 logical call";
}

TEST_F(ResilienceFixture, CorruptedReplyIsCaughtByChecksumAndRetried) {
  servant_ = std::make_shared<EchoServant>();
  auto ref = orb::RefBuilder(*server_ctx_, servant_)
                 .glue({std::make_shared<cap::ChecksumCapability>()})
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  const std::vector<std::int32_t> values = {1, -2, 3, -4, 5};
  EXPECT_EQ(gp->echo(values), values);  // warm the selection cache

  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::corrupt}};
  plan.add(server_ctx_->endpoint_name(), schedule);

  const std::uint64_t retries_before = counter("rmi.retries");
  EXPECT_EQ(gp->echo(values), values)
      << "the checksum catches the flipped byte; the retry returns clean "
         "data, never corrupted data";
  EXPECT_EQ(counter("rmi.retries"), retries_before + 1);
}

TEST_F(ResilienceFixture, DeadlineSpentInsideTheProtocolIsRecordedOnce) {
  resilience::ScopedManualClock scoped;
  servant_ = std::make_shared<EchoServant>();
  auto ref = orb::RefBuilder(*server_ctx_, servant_)
                 .glue({std::make_shared<cap::ChecksumCapability>()})
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->set_deadline_budget(1ms);

  // The server answers in time, but the reply arrives late: the client's
  // reply chain finds the budget spent inside the protocol.
  const transport::FrameHandler original =
      transport::EndpointRegistry::instance().lookup(
          server_ctx_->endpoint_name());
  sabotage_endpoint([&scoped, original](const wire::Buffer& frame) {
    wire::Buffer reply = original(frame);
    scoped.clock().advance(2ms);
    return reply;
  });

  auto& recorder = introspect::FlightRecorder::global();
  recorder.clear();
  const std::uint64_t deadline_before = counter("rmi.deadline_exceeded");
  EXPECT_THROW(gp->ping(), DeadlineExceeded);
  EXPECT_EQ(counter("rmi.deadline_exceeded"), deadline_before + 1);
  std::size_t deadline_records = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.kind == introspect::EventKind::deadline) ++deadline_records;
  }
  EXPECT_EQ(deadline_records, 1u);
  EXPECT_EQ(servant_->pings(), 1u);

  restore_endpoint(original);
  recorder.clear();
}

TEST_F(ResilienceFixture, ScriptedDuplicateDeliversTwiceClientSeesOneReply) {
  EchoPointer gp(*client_ctx_, make_echo_ref());

  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::duplicate}};
  plan.add(server_ctx_->endpoint_name(), schedule);

  EXPECT_EQ(gp->ping(), 2u)
      << "the duplicated request reached the servant twice; the client got "
         "exactly one reply (the second)";
  EXPECT_EQ(servant_->pings(), 2u);
}

TEST_F(ResilienceFixture, InjectedDelayRunsOnTheResilienceClock) {
  resilience::ScopedManualClock scoped;
  EchoPointer gp(*client_ctx_, make_echo_ref());

  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::delay}};
  schedule.delay = 7ms;
  plan.add(server_ctx_->endpoint_name(), schedule);

  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(scoped.clock().now_ns(), 7 * kMs)
      << "the injected delay advanced exactly the virtual clock — no "
         "wall-clock wait happened";
}

TEST_F(ResilienceFixture, BackoffWaitsOnTheResilienceClock) {
  resilience::ScopedManualClock scoped;
  EchoPointer gp(*client_ctx_, make_echo_ref());
  resilience::RetryPolicy policy;
  policy.initial_backoff = 10ms;
  gp->set_retry_policy(policy);

  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::drop}};
  plan.add(server_ctx_->endpoint_name(), schedule);

  EXPECT_EQ(gp->ping(), 1u);
  EXPECT_EQ(scoped.clock().now_ns(), 10 * kMs)
      << "one retry waited exactly one initial_backoff of virtual time";
}

TEST_F(ResilienceFixture, PerGpPolicyBeatsThePerContextPolicy) {
  EchoPointer gp(*client_ctx_, make_echo_ref());
  EXPECT_EQ(gp->ping(), 1u);  // warm the selection cache

  resilience::RetryPolicy no_retries;
  no_retries.max_attempts = 1;
  client_ctx_->set_retry_policy(no_retries);

  resilience::ScopedFaultPlan plan;
  resilience::FaultSchedule schedule;
  schedule.scripted = {{0, resilience::FaultKind::drop}};
  plan.add(server_ctx_->endpoint_name(), schedule);
  EXPECT_THROW(gp->ping(), TransportError)
      << "the context policy forbids retries, so the drop is fatal";

  resilience::RetryPolicy one_retry;
  one_retry.max_attempts = 2;
  gp->set_retry_policy(one_retry);
  plan.add(server_ctx_->endpoint_name(), schedule);  // reset the script
  EXPECT_EQ(gp->ping(), 2u) << "the per-GP policy re-enables the retry";

  client_ctx_->clear_retry_policy();
}

}  // namespace
}  // namespace ohpx
