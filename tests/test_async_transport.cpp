// Async transport semantics over the epoll reactor: backpressure when the
// inflight window fills, its interplay with retry policies and circuit
// breakers (window-full is "too busy", never "broken"), deadline
// cancellation of pending futures, correlation-id demux under heavy
// overlap, and reply framing edge cases from a raw accepting socket.  All
// timing runs on the resilience ManualClock — no sleeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"
#include "raw_socket.hpp"

namespace ohpx {
namespace {

using scenario::EchoServant;
using scenario::EchoStub;

// A servant whose kBlock method parks the server's connection handler
// until the test releases it — the deterministic way to keep calls
// inflight (queued or awaiting a reply) and fill the reactor window.
class GatedServant final : public orb::Servant {
 public:
  static constexpr std::string_view kTypeName = "Gated";
  enum Method : std::uint32_t {
    kBlock = 1,  // () -> u64: waits for release(), returns the call index
    kPing = 2,   // () -> u64
  };

  std::string_view type_name() const noexcept override { return kTypeName; }

  void dispatch(std::uint32_t method_id, wire::Decoder& in,
                wire::Encoder& out) override {
    (void)in;
    switch (method_id) {
      case kBlock: {
        const std::uint64_t index = arrivals_.fetch_add(1) + 1;
        opened_.wait();
        orb::marshal_result(out, index);
        return;
      }
      case kPing:
        orb::marshal_result(out, pings_.fetch_add(1) + 1);
        return;
      default:
        orb::unknown_method(kTypeName, method_id);
    }
  }

  void release() {
    if (!released_.exchange(true)) gate_.set_value();
  }
  std::uint64_t arrivals() const noexcept { return arrivals_.load(); }

 private:
  std::promise<void> gate_;
  std::shared_future<void> opened_{gate_.get_future().share()};
  std::atomic<bool> released_{false};
  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<std::uint64_t> pings_{0};
};

class GatedStub : public orb::ObjectStub {
 public:
  static constexpr std::string_view kTypeName = GatedServant::kTypeName;
  using ObjectStub::ObjectStub;
};

// Shrinks the global reactor window for one test; restores on exit.
class ScopedWindow {
 public:
  explicit ScopedWindow(std::size_t window)
      : previous_(transport::Reactor::global().inflight_window()) {
    transport::Reactor::global().set_inflight_window(window);
  }
  ~ScopedWindow() {
    transport::Reactor::global().set_inflight_window(previous_);
  }

 private:
  std::size_t previous_;
};

std::uint64_t counter_value(const char* name) {
  return metrics::MetricsRegistry::global()
      .counter_handle(name)
      ->load(std::memory_order_relaxed);
}

class AsyncTransportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    m_client_ = world_.add_machine("client", lan);
    m_server_ = world_.add_machine("server", lan);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
    server_ctx_->enable_tcp();
  }

  // A tcp-only reference: the table carries exactly the tcp entry, so
  // selection always routes through the reactor.
  template <typename Servant>
  orb::ObjectRef tcp_ref(std::shared_ptr<Servant> servant) {
    return orb::RefBuilder(*server_ctx_, std::move(servant)).tcp().build();
  }

  runtime::World world_;
  netsim::MachineId m_client_{}, m_server_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
};

// ---- window-full surfaces as a synchronous backpressure refusal -----------

TEST_F(AsyncTransportFixture, WindowFullRefusesWithBackpressure) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));
  ScopedWindow window(2);

  auto first = stub.call_async<std::uint64_t>(GatedServant::kBlock);
  auto second = stub.call_async<std::uint64_t>(GatedServant::kBlock);

  auto& recorder = introspect::FlightRecorder::global();
  recorder.clear();
  const std::uint64_t refusals_before = counter_value("rmi.backpressure");
  const std::uint64_t reactor_refusals_before =
      counter_value("reactor.backpressure");
  try {
    stub.call_async<std::uint64_t>(GatedServant::kBlock);
    FAIL() << "expected TransportError(backpressure)";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::backpressure);
  }
  // One refusal, one anomaly: both counters its row names, one entry.
  EXPECT_EQ(counter_value("rmi.backpressure"), refusals_before + 1);
  EXPECT_EQ(counter_value("reactor.backpressure"),
            reactor_refusals_before + 1);
  std::size_t backpressure_records = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.kind == introspect::EventKind::backpressure) {
      ++backpressure_records;
    }
  }
  EXPECT_EQ(backpressure_records, 1u);
  EXPECT_TRUE(resilience::is_retryable(ErrorCode::backpressure));

  // Nothing was queued for the refused call; the two admitted calls
  // complete once the gate opens.
  servant->release();
  EXPECT_GT(first.get(), 0u);
  EXPECT_GT(second.get(), 0u);
}

// ---- the sync path retries backpressure with backoff ----------------------

TEST_F(AsyncTransportFixture, RetryPolicyBacksOffOnBackpressure) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub blocker(*client_ctx_, tcp_ref(servant));
  ScopedWindow window(1);

  auto parked = blocker.call_async<std::uint64_t>(GatedServant::kBlock);

  resilience::ScopedManualClock scoped_clock;
  GatedStub caller(*client_ctx_, tcp_ref(servant));
  resilience::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(10);
  policy.backoff_multiplier = 2.0;
  caller.set_retry_policy(policy);

  const std::uint64_t retries_before = counter_value("rmi.retries");
  const std::int64_t t0 = scoped_clock.clock().now_ns();
  try {
    caller.call<std::uint64_t>(GatedServant::kPing);
    FAIL() << "expected the retries to exhaust against a full window";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::backpressure);
  }
  // Two retries waited 10ms then 20ms on the manual clock — the policy
  // backed off instead of hammering the full window.
  EXPECT_EQ(counter_value("rmi.retries"), retries_before + 2);
  EXPECT_GE(scoped_clock.clock().now_ns() - t0,
            std::chrono::nanoseconds(std::chrono::milliseconds(30)).count());

  servant->release();
  EXPECT_EQ(parked.get(), 1u);
}

// ---- backpressure never trips a breaker -----------------------------------

TEST_F(AsyncTransportFixture, BackpressureDoesNotTripBreakers) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub blocker(*client_ctx_, tcp_ref(servant));
  ScopedWindow window(1);

  auto parked = blocker.call_async<std::uint64_t>(GatedServant::kBlock);

  GatedStub caller(*client_ctx_, tcp_ref(servant));
  resilience::BreakerConfig breaker;
  breaker.failure_threshold = 1;  // any real transport failure would trip
  caller.set_breaker_config(breaker);
  resilience::RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  caller.set_retry_policy(no_retry);

  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(caller.call<std::uint64_t>(GatedServant::kPing),
                 TransportError);
    EXPECT_EQ(caller.breaker_state(0),
              resilience::CircuitBreaker::State::closed)
        << "window-full means the destination is too busy, not broken";
  }

  servant->release();
  EXPECT_EQ(parked.get(), 1u);
  // With the window free again the same stub's calls flow — and succeed
  // through the still-closed breaker.
  EXPECT_EQ(caller.call<std::uint64_t>(GatedServant::kPing), 1u);
}

// ---- an async transport fault feeds the breaker like a sync one -----------

// A reference naming a raw TCP endpoint: tcp alone, or glue[quota] in
// front of tcp.
orb::ObjectRef raw_tcp_ref(std::uint16_t port, bool through_glue) {
  proto::ServerAddress address;
  address.machine = netsim::kInvalidMachine;
  address.tcp_host = "127.0.0.1";
  address.tcp_port = port;
  proto::ProtoTable table;
  if (through_glue) {
    proto::GlueProtoData glue;
    glue.glue_id = 1;
    glue.delegate = proto::ProtocolEntry{"tcp", {}};
    glue.capabilities.push_back(cap::QuotaCapability(100).descriptor());
    table.add(
        proto::ProtocolEntry{"glue", proto::encode_glue_proto_data(glue)});
  } else {
    table.add(proto::ProtocolEntry{"tcp", {}});
  }
  return orb::ObjectRef(0x0dead2, "Echo", address, table);
}

// One async call whose exchange fails on the wire opens a threshold-1
// breaker once and writes one breaker_open record.  The fault arrives
// through the future, so the settlement is what feeds the breaker.
void expect_async_fault_opens_breaker_once(EchoStub& stub) {
  resilience::BreakerConfig breaker;
  breaker.failure_threshold = 1;
  stub.set_breaker_config(breaker);

  auto& recorder = introspect::FlightRecorder::global();
  recorder.clear();
  const std::uint64_t opened_before =
      counter_value(metrics::names::kRmiBreakerOpened);

  auto future = stub.call_async<std::uint64_t>(EchoServant::kPing);
  EXPECT_THROW(future.get(), TransportError);

  EXPECT_EQ(counter_value(metrics::names::kRmiBreakerOpened),
            opened_before + 1);
  EXPECT_EQ(stub.breaker_state(0), resilience::CircuitBreaker::State::open);
  std::size_t breaker_open_records = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.kind == introspect::EventKind::breaker_open) {
      ++breaker_open_records;
    }
  }
  EXPECT_EQ(breaker_open_records, 1u);
  recorder.clear();
}

TEST_F(AsyncTransportFixture, AsyncTransportFaultOpensBreakerWithRecords) {
  // A tcp-only reference to a port nothing listens on: the reactor's
  // connect is refused on the loop thread.
  EchoStub stub(*client_ctx_, raw_tcp_ref(1, /*through_glue=*/false));
  expect_async_fault_opens_breaker_once(stub);
}

// A listener that reads one frame per connection, counts it and drops the
// connection: every exchange fails on the wire after the request landed.
class DroppingListener {
 public:
  DroppingListener()
      : listener_(0, [this](const wire::Buffer&) -> wire::Buffer {
          ++frames_;
          throw std::runtime_error("drop the connection");
        }) {}
  std::uint16_t port() const noexcept { return listener_.port(); }
  int frames() const noexcept { return frames_.load(); }

 private:
  std::atomic<int> frames_{0};
  transport::TcpListener listener_;
};

TEST_F(AsyncTransportFixture, AsyncGlueCallNeverRetries) {
  // The sync path would put max_attempts frames on the wire; an async
  // call puts one, through glue as over plain tcp.
  DroppingListener server;
  EchoStub stub(*client_ctx_,
                raw_tcp_ref(server.port(), /*through_glue=*/true));
  ASSERT_EQ(resilience::RetryPolicy{}.max_attempts, 3);
  const std::uint64_t retries_before =
      counter_value(metrics::names::kRmiRetries);

  auto future = stub.call_async<std::uint64_t>(EchoServant::kPing);
  EXPECT_THROW(future.get(), TransportError);
  EXPECT_EQ(server.frames(), 1);
  EXPECT_EQ(counter_value(metrics::names::kRmiRetries), retries_before);
}

TEST_F(AsyncTransportFixture, AsyncGlueFaultOpensBreakerWithRecords) {
  DroppingListener server;
  EchoStub stub(*client_ctx_,
                raw_tcp_ref(server.port(), /*through_glue=*/true));
  expect_async_fault_opens_breaker_once(stub);
}

// ---- deadlines cancel pending futures, exactly once -----------------------

TEST_F(AsyncTransportFixture, DeadlineCancelsPendingFutureExactlyOnce) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));

  resilience::ScopedManualClock scoped_clock;
  stub.set_deadline_budget(std::chrono::milliseconds(5));
  auto future = stub.call_async<std::uint64_t>(GatedServant::kBlock);
  EXPECT_FALSE(future.ready());

  scoped_clock.clock().advance(std::chrono::milliseconds(6));
  transport::Reactor::global().poke();
  future.wait();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  // The gated reply arrives after cancellation: the reactor drops it (the
  // correlation id no longer maps to a pending call) and the future's
  // settled error is immutable — a second get() observes the same
  // DeadlineExceeded, not a value.
  servant->release();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  // The connection itself survived the cancellation: a fresh unbounded
  // call on the same stub still round-trips.
  stub.set_deadline_budget(Nanoseconds{0});
  EXPECT_EQ(stub.call<std::uint64_t>(GatedServant::kPing), 1u);
}

// ---- correlation demux under overlap --------------------------------------

TEST_F(AsyncTransportFixture, OverlappingCallsDemuxToTheRightFutures) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(*client_ctx_, ref);

  constexpr int kCalls = 128;
  std::vector<ohpx::Future<std::string>> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(stub.call_async<std::string>(
        EchoServant::kReverse, "payload-" + std::to_string(i)));
  }
  for (int i = 0; i < kCalls; ++i) {
    std::string expected = "payload-" + std::to_string(i);
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), expected)
        << "reply " << i << " demuxed to the wrong future";
  }
}

// ---- the continuation path records completion latency ---------------------

TEST_F(AsyncTransportFixture, AsyncCompletionLatencyRecorded) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(*client_ctx_, ref);

  auto* histogram =
      metrics::MetricsRegistry::global().latency_handle("rmi.async.latency");
  const std::uint64_t samples_before = histogram->count();

  constexpr int kCalls = 6;
  for (int i = 0; i < kCalls; ++i) {
    auto future = stub.call_async<std::string>(EchoServant::kReverse,
                                               std::string("abc"));
    EXPECT_EQ(future.get(), "cba");
  }

  // Every settled async call recorded exactly one submit-to-settlement
  // sample; the sync-path histogram is untouched by the async route.
  EXPECT_EQ(histogram->count(), samples_before + kCalls);
}

// ---- deadline cancellation is counted on the async path -------------------

TEST_F(AsyncTransportFixture, AsyncDeadlineCancellationCounted) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));

  resilience::ScopedManualClock scoped_clock;
  stub.set_deadline_budget(std::chrono::milliseconds(5));

  auto* histogram =
      metrics::MetricsRegistry::global().latency_handle("rmi.async.latency");
  const std::uint64_t samples_before = histogram->count();
  const std::uint64_t cancelled_before =
      counter_value("rmi.async.deadline_cancelled");
  const std::uint64_t deadline_before = counter_value("rmi.deadline_exceeded");

  auto future = stub.call_async<std::uint64_t>(GatedServant::kBlock);
  scoped_clock.clock().advance(std::chrono::milliseconds(6));
  transport::Reactor::global().poke();
  future.wait();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  // The cancellation bumped both the shared deadline counter and the
  // async-specific one — and did NOT record a completion latency sample
  // (the call never completed).
  EXPECT_EQ(counter_value("rmi.async.deadline_cancelled"),
            cancelled_before + 1);
  EXPECT_EQ(counter_value("rmi.deadline_exceeded"), deadline_before + 1);
  EXPECT_EQ(histogram->count(), samples_before);

  servant->release();
}

// ---- reply framing edge cases from a raw accepting socket -----------------
//
// The test plays the server: it accepts the reactor's connection, reads
// the requests to learn their correlation ids, and writes the replies in
// whatever pieces the case needs.  Each case listens on its own port, so
// it gets a connection of its own.

Future<transport::RawReply> submit_text(std::uint16_t port,
                                        std::string_view text) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 7;
  return transport::Reactor::global().submit("127.0.0.1", port, header,
                                             bytes_of(text));
}

// The replies echo the request bodies; framed for the stream.
std::vector<Bytes> answer_requests(testutil::RawSocket& peer,
                                   std::size_t count) {
  std::vector<Bytes> replies = testutil::echo_replies(peer, count);
  for (Bytes& reply : replies) reply = testutil::framed(reply);
  return replies;
}

bool settles(Future<transport::RawReply>& future) {
  return future.wait_for(std::chrono::seconds(10));
}

TEST(ReactorReplyFramingTest, ReplySentOneBytePerWriteSettles) {
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  auto future = submit_text(acceptor.port(), "bytewise");
  testutil::RawSocket peer = acceptor.accept_one();
  ASSERT_TRUE(peer.valid());
  const std::vector<Bytes> replies = answer_requests(peer, 1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(peer.send_bytewise(replies[0]));
  ASSERT_TRUE(settles(future));
  EXPECT_EQ(future.get().payload.bytes(), bytes_of("bytewise"));
}

TEST(ReactorReplyFramingTest, TwoRepliesInOneWriteSettleBoth) {
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  auto first = submit_text(acceptor.port(), "first");
  auto second = submit_text(acceptor.port(), "second");
  testutil::RawSocket peer = acceptor.accept_one();
  ASSERT_TRUE(peer.valid());
  const std::vector<Bytes> replies = answer_requests(peer, 2);
  ASSERT_EQ(replies.size(), 2u);
  // Second reply first: the correlation ids, not the order, pick futures.
  Bytes both = replies[1];
  both.insert(both.end(), replies[0].begin(), replies[0].end());
  ASSERT_TRUE(peer.send_all(both));
  ASSERT_TRUE(settles(first));
  ASSERT_TRUE(settles(second));
  EXPECT_EQ(first.get().payload.bytes(), bytes_of("first"));
  EXPECT_EQ(second.get().payload.bytes(), bytes_of("second"));
}

TEST(ReactorReplyFramingTest, OverCapPrefixFailsEveryPendingCallThenRedials) {
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  std::vector<Future<transport::RawReply>> futures;
  for (const std::string_view text : {"a", "b", "c"}) {
    futures.push_back(submit_text(acceptor.port(), text));
  }
  testutil::RawSocket peer = acceptor.accept_one();
  ASSERT_TRUE(peer.valid());
  ASSERT_EQ(answer_requests(peer, futures.size()).size(), futures.size());
  std::uint8_t prefix[transport::kFramePrefixSize];
  transport::store_frame_prefix(prefix,
                                transport::FrameReader::kMaxFrameSize + 1);
  ASSERT_TRUE(peer.send_all(BytesView(prefix, sizeof(prefix))));
  for (auto& future : futures) {
    ASSERT_TRUE(settles(future));
    try {
      (void)future.get();
      FAIL() << "an over-cap prefix must fail the pending call";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), ErrorCode::transport_io) << e.what();
    }
  }
  EXPECT_TRUE(peer.closed_by_peer());

  // The next submit dials a fresh connection.
  auto again = submit_text(acceptor.port(), "again");
  testutil::RawSocket redialed = acceptor.accept_one();
  ASSERT_TRUE(redialed.valid());
  const std::vector<Bytes> replies = answer_requests(redialed, 1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(redialed.send_all(replies[0]));
  ASSERT_TRUE(settles(again));
  EXPECT_EQ(again.get().payload.bytes(), bytes_of("again"));
}

}  // namespace
}  // namespace ohpx
