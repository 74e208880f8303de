// End-to-end invocation tracing (docs/observability.md): the wire-header
// trace extension, context propagation through every pipeline stage, the
// retry/invalidation events, sampling steering (global / per-context /
// per-GP, innermost wins), the per-thread ring buffer, and the exporters.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/relay.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/trace/export.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;

std::vector<trace::SpanRecord> spans_named(const trace::TraceSnapshot& snap,
                                           std::string_view name) {
  std::vector<trace::SpanRecord> out;
  for (const auto& span : snap.spans) {
    if (std::string_view(span.name) == name) out.push_back(span);
  }
  return out;
}

bool one_trace_id(const trace::TraceSnapshot& snap) {
  if (snap.spans.empty()) return false;
  for (const auto& span : snap.spans) {
    if (span.trace_hi != snap.spans.front().trace_hi ||
        span.trace_lo != snap.spans.front().trace_lo) {
      return false;
    }
  }
  return true;
}

// ---- wire-header extension --------------------------------------------------------

TEST(TraceWire, ExtensionRoundTrips) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 7;
  header.object_id = 42;
  header.method_or_code = 3;
  header.flags |= wire::kFlagTraceContext;
  header.trace_hi = 0x0123456789abcdefull;
  header.trace_lo = 0xfedcba9876543210ull;
  header.trace_parent_span = 0x1122334455667788ull;
  header.trace_flags = wire::kTraceFlagSampled;

  const Bytes body = {1, 2, 3};
  const wire::Buffer frame = wire::encode_frame(header, body);
  EXPECT_EQ(frame.size(),
            wire::kHeaderSize + wire::kTraceExtensionSize + body.size());

  BytesView decoded_body;
  const wire::MessageHeader decoded =
      wire::decode_frame(frame.view(), decoded_body);
  EXPECT_EQ(decoded, header);
  EXPECT_TRUE(decoded.has_trace());
  ASSERT_EQ(decoded_body.size(), body.size());
  EXPECT_EQ(decoded_body[0], 1u);
}

TEST(TraceWire, NoExtensionWithoutTheFlag) {
  wire::MessageHeader header;
  header.trace_hi = 0xdeadull;  // ignored: the flag is not set
  const wire::Buffer frame = wire::encode_frame(header, Bytes{9});
  EXPECT_EQ(frame.size(), wire::kHeaderSize + 1);

  BytesView body;
  const wire::MessageHeader decoded = wire::decode_frame(frame.view(), body);
  EXPECT_FALSE(decoded.has_trace());
  EXPECT_EQ(decoded.trace_hi, 0u);
}

TEST(TraceWire, TruncatedExtensionThrows) {
  wire::MessageHeader header;
  header.flags |= wire::kFlagTraceContext;
  header.trace_hi = 1;
  const wire::Buffer frame = wire::encode_frame(header, Bytes{});
  BytesView whole = frame.view();
  BytesView body;
  EXPECT_THROW(
      wire::decode_frame(whole.subspan(0, wire::kHeaderSize + 3), body),
      WireError);
}

// ---- pipeline propagation ---------------------------------------------------------

// One LAN, client and server on different machines, so nexus-tcp carries
// every call (the shm fast path would hide the wire propagation).
class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::TraceSink::global().set_sampling(trace::Sampling::always);
    trace::TraceSink::global().clear();

    lan_ = world_.add_lan("lan");
    m_client_ = world_.add_machine("client", lan_);
    m_server_ = world_.add_machine("server-a", lan_);
    m_server2_ = world_.add_machine("server-b", lan_);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
  }

  void TearDown() override {
    trace::TraceSink::global().set_sampling(trace::Sampling::off);
    trace::TraceSink::global().clear();
  }

  runtime::World world_;
  netsim::LanId lan_{};
  netsim::MachineId m_client_{}, m_server_{}, m_server2_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
};

TEST_F(TraceFixture, EveryPipelineStageUnderOneTraceId) {
  // Relay builds an envelope, so its call records every stage: encode,
  // the transport leg, the forwarder's decode, the server.
  proto::RelayForwarder gateway("gw/stages");
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay",
                     proto::RelayProtocol::make_proto_data("gw/stages")})
                 .build();
  client_ctx_->pool().enable("relay");
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();
  ASSERT_EQ(gp->last_protocol(), "relay[gw/stages]");

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap));
  for (const char* name : {"rmi.invoke", "select", "wire.encode",
                           "wire.decode", "transport", "proto.relay",
                           "server.dispatch", "servant.dispatch"}) {
    EXPECT_EQ(spans_named(snap, name).size(), 1u) << name;
  }

  // Parentage: the server pipeline hangs under the client's call span
  // (the wire extension carries the invoke span as the parent), and the
  // servant sits under server dispatch.
  const auto invoke = spans_named(snap, "rmi.invoke").front();
  const auto server = spans_named(snap, "server.dispatch").front();
  const auto servant = spans_named(snap, "servant.dispatch").front();
  EXPECT_EQ(invoke.parent_span, 0u) << "the invoke span is the root";
  EXPECT_EQ(server.parent_span, invoke.span_id);
  EXPECT_EQ(servant.parent_span, server.span_id);
  EXPECT_EQ(spans_named(snap, "select").front().parent_span, invoke.span_id);
}

TEST_F(TraceFixture, NexusCallRecordsTheServerUnderTheCallersTraceAndNoFrame) {
  // nexus-tcp's wire is a model: the call goes straight to the server's
  // dispatch, as shm's does, with no frame to encode, carry or decode.
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .nexus()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();
  ASSERT_EQ(gp->last_protocol(), "nexus-tcp");

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap));
  for (const char* name : {"rmi.invoke", "proto.nexus", "server.dispatch",
                           "servant.dispatch"}) {
    EXPECT_EQ(spans_named(snap, name).size(), 1u) << name;
  }
  for (const char* name : {"wire.encode", "transport", "wire.decode"}) {
    EXPECT_TRUE(spans_named(snap, name).empty()) << name;
  }
  const auto invoke = spans_named(snap, "rmi.invoke").front();
  const auto server = spans_named(snap, "server.dispatch").front();
  EXPECT_EQ(server.parent_span, invoke.span_id);
  EXPECT_EQ(spans_named(snap, "servant.dispatch").front().parent_span,
            server.span_id);
}

TEST_F(TraceFixture, ShmCallRecordsTheServerUnderTheCallersTraceAndNoFrame) {
  // A servant on the client's machine: shm carries the call straight to
  // the server's dispatch, with no frame to encode or decode.
  orb::Context& local_ctx = world_.create_context(m_client_);
  auto ref = orb::RefBuilder(local_ctx, std::make_shared<EchoServant>())
                 .shm()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();
  ASSERT_EQ(gp->last_protocol(), "shm");

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap));
  for (const char* name :
       {"rmi.invoke", "proto.shm", "server.dispatch", "servant.dispatch"}) {
    EXPECT_EQ(spans_named(snap, name).size(), 1u) << name;
  }
  for (const char* name : {"wire.encode", "wire.decode"}) {
    EXPECT_TRUE(spans_named(snap, name).empty()) << name;
  }
  const auto invoke = spans_named(snap, "rmi.invoke").front();
  const auto server = spans_named(snap, "server.dispatch").front();
  EXPECT_EQ(server.parent_span, invoke.span_id);
  EXPECT_EQ(spans_named(snap, "servant.dispatch").front().parent_span,
            server.span_id);
}

TEST_F(TraceFixture, DisabledTracingRecordsNothing) {
  trace::TraceSink::global().set_sampling(trace::Sampling::off);
  EXPECT_FALSE(trace::TraceSink::active());

  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .nexus()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();
  EXPECT_TRUE(trace::TraceSink::global().snapshot().spans.empty());
}

TEST_F(TraceFixture, MigrationReselectionStaysInOneTrace) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .nexus()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();  // warm the selection cache

  orb::Context& new_home = world_.create_context(m_server2_);
  runtime::migrate_shared(ref.object_id(), *server_ctx_, new_home);

  trace::TraceSink::global().clear();
  gp->ping();

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap))
      << "re-selection after migration must stay inside the call's trace";
  const auto invalidations = spans_named(snap, "cache.invalidate");
  ASSERT_EQ(invalidations.size(), 1u);
  EXPECT_EQ(invalidations.front().kind, trace::SpanKind::event);

  const auto selects = spans_named(snap, "select");
  ASSERT_EQ(selects.size(), 1u);
  EXPECT_NE(std::string_view(selects.front().annotation).find("cache:miss"),
            std::string_view::npos);
}

TEST_F(TraceFixture, TransportRetryKeepsTheTraceId) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .nexus()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();  // warm the selection cache

  // Make the server endpoint fail exactly once: the cached selection hits
  // a TransportError, CallCore drops the cache entry and retries — all
  // inside the same rmi.invoke span, so the trace shows both attempts.
  // nexus-tcp hands each call to the endpoint's request handler, so that
  // is the one wrapped.
  auto& registry = transport::EndpointRegistry::instance();
  const std::string endpoint = server_ctx_->endpoint_name();
  const transport::RequestHandler original = *registry.find(endpoint);
  auto failed_once = std::make_shared<bool>(false);
  registry.bind(endpoint, [original, failed_once](
                              const wire::MessageHeader& header,
                              BytesView body) {
    if (!*failed_once) {
      *failed_once = true;
      throw TransportError(ErrorCode::transport_closed,
                           "injected endpoint failure");
    }
    return original(header, body);
  });

  trace::TraceSink::global().clear();
  EXPECT_EQ(gp->ping(), 2u);
  registry.bind(endpoint, original);

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap));
  EXPECT_EQ(spans_named(snap, "rmi.invoke").size(), 1u)
      << "the retry happens inside the original call span";
  const auto retries = spans_named(snap, "retry");
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_STREQ(retries.front().annotation, "transport_closed");
  EXPECT_EQ(spans_named(snap, "select").size(), 2u)
      << "failed attempt + re-selection";
  EXPECT_EQ(spans_named(snap, "servant.dispatch").size(), 1u);
}

TEST_F(TraceFixture, GluedCallRecordsCapabilitySpansInTheSameTrace) {
  auto auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_seed(0x7ace), "tracer", cap::Scope::always);
  auto checksum = std::make_shared<cap::ChecksumCapability>();
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .glue({auth, checksum})
                 .build();
  EchoPointer gp(*client_ctx_, ref);

  trace::TraceSink::global().clear();
  gp->ping();

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap));
  // Client chain: process auth+checksum out, unprocess back; server chain
  // mirrors it — four of each per roundtrip.
  EXPECT_EQ(spans_named(snap, "cap.process").size(), 4u);
  EXPECT_EQ(spans_named(snap, "cap.unprocess").size(), 4u);

  bool saw_auth = false;
  for (const auto& span : spans_named(snap, "cap.process")) {
    if (std::string_view(span.annotation).find("authentication") !=
        std::string_view::npos) {
      saw_auth = true;
    }
  }
  EXPECT_TRUE(saw_auth) << "capability spans carry the capability kind";
  EXPECT_EQ(spans_named(snap, "server.dispatch").size(), 1u);
}

TEST_F(TraceFixture, RelayedCallJoinsTheCallersTrace) {
  proto::RelayForwarder gateway("gw/traced");
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .custom(proto::ProtocolEntry{
                     "relay",
                     proto::RelayProtocol::make_proto_data("gw/traced")})
                 .build();
  client_ctx_->pool().enable("relay");
  EchoPointer gp(*client_ctx_, ref);

  trace::TraceSink::global().clear();
  gp->ping();
  EXPECT_EQ(gp->last_protocol(), "relay[gw/traced]");

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  EXPECT_TRUE(one_trace_id(snap));
  EXPECT_EQ(spans_named(snap, "proto.relay").size(), 1u);
  const auto servers = spans_named(snap, "server.dispatch");
  ASSERT_EQ(servers.size(), 1u)
      << "the delegated hop still dispatches exactly once";
  EXPECT_EQ(servers.front().parent_span,
            spans_named(snap, "rmi.invoke").front().span_id);
}

TEST_F(TraceFixture, TcpCallPropagatesAcrossThreadsByWireOnly) {
  // The foreign-world TCP path is the two-process shape (see
  // examples/two_processes.cpp): the reference crosses as bytes and the
  // server handles the frame on its acceptor thread, so the trace context
  // can only arrive via the wire extension — never via thread-locals.
  server_ctx_->enable_tcp();
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  const Bytes wire_form = ref.to_bytes();

  runtime::World other_world;
  const auto other_lan = other_world.add_lan("other");
  orb::Context& foreign_ctx =
      other_world.create_context(other_world.add_machine("foreign", other_lan));

  auto gp = EchoPointer::from_bytes(foreign_ctx, wire_form);
  trace::TraceSink::global().clear();
  EXPECT_EQ(gp->ping(), 1u);

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  const auto invokes = spans_named(snap, "rmi.invoke");
  const auto servers = spans_named(snap, "server.dispatch");
  ASSERT_EQ(invokes.size(), 1u);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers.front().trace_hi, invokes.front().trace_hi);
  EXPECT_EQ(servers.front().trace_lo, invokes.front().trace_lo);
  EXPECT_EQ(servers.front().parent_span, invokes.front().span_id);
  EXPECT_NE(servers.front().thread_index, invokes.front().thread_index)
      << "server dispatch runs on the acceptor thread";
}

// ---- sampling: the sink's mode and ratio -----------------------------------------

class SamplingFixture : public TraceFixture {
 protected:
  void SetUp() override {
    TraceFixture::SetUp();
    trace::TraceSink::global().set_sampling(trace::Sampling::off);
    ref_ = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
               .nexus()
               .build();
  }

  orb::ObjectRef ref_;
};

TEST_F(SamplingFixture, RatioZeroAndOneAreExact) {
  EchoPointer gp(*client_ctx_, ref_);

  trace::TraceSink::global().set_sampling(trace::Sampling::ratio, 0.0);
  trace::TraceSink::global().clear();
  for (int i = 0; i < 16; ++i) gp->ping();
  EXPECT_TRUE(trace::TraceSink::global().snapshot().spans.empty());

  trace::TraceSink::global().set_sampling(trace::Sampling::ratio, 1.0);
  trace::TraceSink::global().clear();
  for (int i = 0; i < 16; ++i) gp->ping();
  EXPECT_EQ(spans_named(trace::TraceSink::global().snapshot(), "rmi.invoke")
                .size(),
            16u);
}

// ---- ring buffer ------------------------------------------------------------------

TEST(TraceRing, FreshThreadDropsOldestAtCapacity) {
  auto& sink = trace::TraceSink::global();
  sink.clear();
  const std::size_t saved = sink.capacity();
  sink.set_capacity(8);

  constexpr std::uint64_t kMarker = 0x5eed0000u;
  std::thread writer([&sink] {
    for (std::uint64_t i = 1; i <= 20; ++i) {
      trace::SpanRecord record{};
      record.trace_hi = kMarker;
      record.trace_lo = 1;
      record.span_id = i;
      sink.record(record);
    }
  });
  writer.join();
  sink.set_capacity(saved);

  const trace::TraceSnapshot snap = sink.snapshot();
  std::vector<std::uint64_t> kept;
  for (const auto& span : snap.spans) {
    if (span.trace_hi == kMarker) kept.push_back(span.span_id);
  }
  ASSERT_EQ(kept.size(), 8u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], 13 + i) << "oldest-first, newest survive";
  }
  EXPECT_GE(snap.dropped, 12u);
  sink.clear();
}

TEST(TraceRing, AnnotationsTruncateInsteadOfAllocating) {
  auto& sink = trace::TraceSink::global();
  sink.set_sampling(trace::Sampling::always);
  sink.clear();
  {
    trace::ContextScope scope(trace::mint_root());
    trace::Span span(trace::SpanKind::event, "test.annotate");
    ASSERT_TRUE(span.armed());
    span.annotate(std::string(200, 'x'));
    span.annotate_u64("count", 12345);
  }
  const trace::TraceSnapshot snap = sink.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  const auto& record = snap.spans.front();
  const std::string_view note(record.annotation);
  EXPECT_LT(note.size(), trace::SpanRecord::kAnnotationCapacity);
  EXPECT_EQ(note.substr(0, 4), "xxxx");
  sink.set_sampling(trace::Sampling::off);
  sink.clear();
}

// ---- exporters --------------------------------------------------------------------

class ExportFixture : public TraceFixture {};

TEST_F(ExportFixture, ChromeJsonAndTextTreeRenderTheCall) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .nexus()
                 .build();
  EchoPointer gp(*client_ctx_, ref);
  gp->ping();

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  const std::string json = trace::to_chrome_json(snap);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"rmi.invoke\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string tree = trace::to_text_tree(snap);
  EXPECT_NE(tree.find("rmi.invoke"), std::string::npos);
  EXPECT_NE(tree.find("servant.dispatch"), std::string::npos);
  // The servant span is nested (indented) under the dispatch pipeline.
  EXPECT_NE(tree.find("  servant.dispatch"), std::string::npos);
}

}  // namespace
}  // namespace ohpx
