// Async transport semantics over the epoll reactor: backpressure when the
// inflight window fills, its interplay with retry policies and circuit
// breakers (window-full is "too busy", never "broken"), deadline
// cancellation of pending futures, correlation-id demux under heavy
// overlap, reply framing edge cases from a raw accepting socket, and the
// sync caller that leads an idle connection (Reactor::exchange).  All
// timing runs on the resilience ManualClock — no sleeps.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
        if (index == 1) arrived_.set_value();
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
  // True once the first kBlock call has reached the servant (10 s bound).
  bool first_arrived() const {
    return first_arrival_.wait_for(std::chrono::seconds(10)) ==
           std::future_status::ready;
  }

 private:
  std::promise<void> arrived_;
  std::shared_future<void> first_arrival_{arrived_.get_future().share()};
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
      : listener_(0, [this](BytesView) -> wire::Buffer {
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

wire::MessageHeader text_request() {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 7;
  return header;
}

Future<transport::RawReply> submit_text(
    std::uint16_t port, std::string_view text,
    transport::Reactor& reactor = transport::Reactor::global()) {
  return reactor.submit("127.0.0.1", port, text_request(), bytes_of(text));
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
  std::vector<std::exception_ptr> errors;
  for (auto& future : futures) {
    ASSERT_TRUE(settles(future));
    try {
      (void)future.get();
      FAIL() << "an over-cap prefix must fail the pending call";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.code(), ErrorCode::transport_io) << e.what();
      errors.push_back(std::current_exception());
    }
  }
  // Each failed call gets its own exception object: none is shared with
  // another caller, or with the reactor loop that raised it.
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0], errors[1]);
  EXPECT_NE(errors[0], errors[2]);
  EXPECT_NE(errors[1], errors[2]);
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

// ---- a sync caller leads an idle connection --------------------------------
//
// exchange() on a connected, idle connection sends its own frame and reads
// its own reply; anything else goes through the loop.  The first call on a
// connection dials through the loop, so each case warms its connection
// with one call before the call it means to lead.

std::string exchange_text(transport::Reactor& reactor, std::uint16_t port,
                          std::string_view text) {
  const transport::RawReply reply =
      reactor.exchange("127.0.0.1", port, text_request(), bytes_of(text));
  return std::string(reply.payload.view().begin(),
                     reply.payload.view().end());
}

// One call answered by the test playing the server: the connection is then
// connected and idle.
void warm(transport::Reactor& reactor, testutil::RawAcceptor& acceptor,
          testutil::RawSocket& peer) {
  auto future = submit_text(acceptor.port(), "warm", reactor);
  peer = acceptor.accept_one();
  ASSERT_TRUE(peer.valid());
  const std::vector<Bytes> replies = answer_requests(peer, 1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(peer.send_all(replies[0]));
  ASSERT_TRUE(settles(future));
  EXPECT_EQ(future.get().payload.bytes(), bytes_of("warm"));
}

TEST(ReactorLeaderTest, LeaderSettlesTheAsyncRepliesItReads) {
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  testutil::RawSocket peer;
  warm(transport::Reactor::global(), acceptor, peer);

  std::promise<std::thread::id> leader_id;
  auto sync = std::async(std::launch::async, [&] {
    leader_id.set_value(std::this_thread::get_id());
    return exchange_text(transport::Reactor::global(), acceptor.port(),
                         "sync");
  });
  const std::optional<Bytes> sync_request = peer.read_frame();
  ASSERT_TRUE(sync_request.has_value());

  // Submitted while the sync call leads: the loop sends it, and its reply,
  // written ahead of the leader's own, is read by the leader.
  auto async = submit_text(acceptor.port(), "async");
  auto settled_on = async.map<std::pair<Bytes, std::thread::id>>(
      [](Future<transport::RawReply> reply) {
        return std::make_pair(reply.get().payload.bytes(),
                              std::this_thread::get_id());
      });
  std::vector<Bytes> replies = answer_requests(peer, 1);
  ASSERT_EQ(replies.size(), 1u);
  BytesView body;
  wire::MessageHeader header = wire::decode_frame(*sync_request, body);
  header.type = wire::MessageType::reply;
  replies.push_back(testutil::framed(wire::encode_frame(header, body).view()));
  Bytes both = replies[0];
  both.insert(both.end(), replies[1].begin(), replies[1].end());
  ASSERT_TRUE(peer.send_all(both));

  EXPECT_EQ(sync.get(), "sync");
  ASSERT_TRUE(settled_on.wait_for(std::chrono::seconds(10)));
  const auto [payload, thread] = settled_on.get();
  EXPECT_EQ(payload, bytes_of("async"));
  EXPECT_EQ(thread, leader_id.get_future().get())
      << "the async reply was not settled by the leader that read it";
}

TEST_F(AsyncTransportFixture, SyncAndAsyncCallsInterleaveOnOneConnection) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(*client_ctx_, ref);
  const auto reversed = [](std::string text) {
    std::reverse(text.begin(), text.end());
    return text;
  };
  for (int round = 0; round < 64; ++round) {
    // Async calls in flight make the sync call wait on the loop; with
    // none in flight it leads, and reads whatever async replies are late.
    std::vector<std::pair<std::string, ohpx::Future<std::string>>> pending;
    for (int k = 0; k < round % 4; ++k) {
      std::string text = "a" + std::to_string(round) + "-" + std::to_string(k);
      pending.emplace_back(text, stub.call_async<std::string>(
                                     EchoServant::kReverse, text));
    }
    const std::string text = "s" + std::to_string(round);
    EXPECT_EQ(stub.call<std::string>(EchoServant::kReverse, text),
              reversed(text));
    pending.emplace_back(
        "b" + std::to_string(round),
        stub.call_async<std::string>(EchoServant::kReverse,
                                     "b" + std::to_string(round)));
    for (auto& [sent, future] : pending) {
      EXPECT_EQ(future.get(), reversed(sent)) << "round " << round;
    }
  }
}

TEST_F(AsyncTransportFixture, ConcurrentSyncCallersShareOneConnection) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub warmup(*client_ctx_, ref);
  EXPECT_EQ(warmup.reverse("warm"), "mraw");

  // One caller at a time leads the connection; the others find it busy
  // and wait on the loop, or on replies the leader reads for them.
  constexpr int kThreads = 6;
  constexpr int kCalls = 150;
  std::vector<std::future<int>> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.push_back(std::async(std::launch::async, [&, t] {
      EchoStub stub(*client_ctx_, ref);
      int wrong = 0;
      for (int i = 0; i < kCalls; ++i) {
        std::string text = std::to_string(t) + ":" + std::to_string(i);
        std::string expected = text;
        std::reverse(expected.begin(), expected.end());
        if (stub.reverse(text) != expected) ++wrong;
      }
      return wrong;
    }));
  }
  for (auto& worker : workers) EXPECT_EQ(worker.get(), 0);
}

TEST(ReactorLeaderTest, ServerCloseDuringLedCallFailsItAndTheNextCallRedials) {
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  testutil::RawSocket peer;
  warm(transport::Reactor::global(), acceptor, peer);

  auto led = std::async(std::launch::async, [&] {
    return exchange_text(transport::Reactor::global(), acceptor.port(),
                         "doomed");
  });
  ASSERT_TRUE(peer.read_frame().has_value());
  peer.close();
  try {
    (void)led.get();
    FAIL() << "a led call whose server closed must fail";
  } catch (const TransportError& e) {
    EXPECT_TRUE(e.code() == ErrorCode::transport_closed ||
                e.code() == ErrorCode::transport_io)
        << e.what();
  }

  auto again = std::async(std::launch::async, [&] {
    return exchange_text(transport::Reactor::global(), acceptor.port(),
                         "again");
  });
  testutil::RawSocket redialed = acceptor.accept_one();
  ASSERT_TRUE(redialed.valid()) << "the next call did not re-dial";
  const std::vector<Bytes> replies = answer_requests(redialed, 1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(redialed.send_all(replies[0]));
  EXPECT_EQ(again.get(), "again");
}

TEST(ReactorLeaderTest, PeerClosingAnIdleLedConnectionIsNoticedAtOnce) {
  auto& reactor = transport::Reactor::global();
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  testutil::RawSocket peer;
  warm(reactor, acceptor, peer);
  // Led calls: the loop, woken by their replies, stops reading the
  // connection.
  for (int i = 0; i < 3; ++i) {
    auto led = std::async(std::launch::async, [&] {
      return exchange_text(reactor, acceptor.port(), "led");
    });
    const std::vector<Bytes> replies = answer_requests(peer, 1);
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_TRUE(peer.send_all(replies[0]));
    EXPECT_EQ(led.get(), "led");
  }

  // The close still wakes the loop, which reaps the connection, so the
  // next call dials fresh instead of failing on the dead one.
  peer.close();
  const auto reaped = [&] {
    for (const auto& stats : reactor.connection_stats()) {
      if (stats.port == acceptor.port()) return false;
    }
    return true;
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!reaped() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(reaped()) << "a peer's close of an idle connection went unseen";
  auto next = std::async(std::launch::async, [&] {
    return exchange_text(reactor, acceptor.port(), "fresh");
  });
  testutil::RawSocket fresh = acceptor.accept_one();
  ASSERT_TRUE(fresh.valid());
  const std::vector<Bytes> replies = answer_requests(fresh, 1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(fresh.send_all(replies[0]));
  EXPECT_EQ(next.get(), "fresh");
}

TEST_F(AsyncTransportFixture, LedCallDeadlineSettlesOnTheManualClock) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));
  EXPECT_EQ(stub.call<std::uint64_t>(GatedServant::kPing), 1u);

  resilience::ScopedManualClock scoped_clock;
  stub.set_deadline_budget(std::chrono::milliseconds(5));
  auto led = std::async(std::launch::async, [&stub] {
    try {
      (void)stub.call<std::uint64_t>(GatedServant::kBlock);
    } catch (const DeadlineExceeded&) {
      return true;
    }
    return false;
  });
  // The call is on the wire (the server holds it) before the clock moves.
  ASSERT_TRUE(servant->first_arrived());
  EXPECT_EQ(led.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "the call settled before its deadline passed";
  scoped_clock.clock().advance(std::chrono::milliseconds(6));
  // The leader polls at the loop's 5 ms granularity, on real time, and
  // sweeps deadlines on the resilience clock when the poll times out.
  ASSERT_EQ(led.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_TRUE(led.get()) << "expected DeadlineExceeded";

  // The late reply finds no pending call; the connection still serves.
  servant->release();
  stub.set_deadline_budget(Nanoseconds{0});
  EXPECT_EQ(stub.call<std::uint64_t>(GatedServant::kPing), 2u);
}

// The descriptor of this process's socket at the far end of `peer`, or -1
// when it is closed.  Matched by its local port (and, while it still has
// one, its peer's port): a socket that was shut down but not closed keeps
// its local port.
int client_fd_of(const testutil::RawSocket& peer) {
  sockaddr_in server{}, client{};
  socklen_t len = sizeof(server);
  if (::getsockname(peer.fd(), reinterpret_cast<sockaddr*>(&server), &len) !=
          0 ||
      ::getpeername(peer.fd(), reinterpret_cast<sockaddr*>(&client), &len) !=
          0) {
    return -1;
  }
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in local{}, far{};
    len = sizeof(local);
    if (fd == peer.fd() ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET || local.sin_port != client.sin_port) {
      continue;
    }
    len = sizeof(far);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&far), &len) != 0 ||
        far.sin_port == server.sin_port) {
      return fd;
    }
  }
  return -1;
}

TEST(ReactorLeaderTest, StopDuringLedCallFailsItAndItsLeaderClosesTheSocket) {
  transport::Reactor reactor;
  testutil::RawAcceptor acceptor;
  ASSERT_NE(acceptor.port(), 0);
  testutil::RawSocket peer;
  warm(reactor, acceptor, peer);
  ASSERT_GE(client_fd_of(peer), 0);

  auto led = std::async(std::launch::async, [&] {
    try {
      (void)exchange_text(reactor, acceptor.port(), "held");
    } catch (const TransportError& e) {
      return e.code();
    }
    return ErrorCode::ok;
  });
  ASSERT_TRUE(peer.read_frame().has_value());
  // The stop shuts the led socket down instead of closing it under its
  // leader; the leader closes it, and stop() returns after that.
  reactor.stop();
  EXPECT_EQ(client_fd_of(peer), -1) << "the led socket outlived stop()";
  ASSERT_EQ(led.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(led.get(), ErrorCode::transport_closed);
  EXPECT_TRUE(peer.closed_by_peer());
}

}  // namespace
}  // namespace ohpx
