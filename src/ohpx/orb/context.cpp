#include "ohpx/orb/context.hpp"

#include <optional>

#include "ohpx/common/log.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::orb {
namespace {

std::atomic<ContextId> g_next_context_id{1};
std::atomic<ObjectId> g_next_object_id{1};
std::atomic<std::uint32_t> g_next_glue_id{1};

// Bumps the per-context request counter and samples dispatch wall time
// into the aggregate and per-context histograms with one clock-read
// pair — and only when the introspection plane armed deep timing
// (metrics::enable_deep_timing): the disarmed constructor is a relaxed
// load and a branch, so the invocation fast path keeps its measured
// cost with no exporter in the process.
class DispatchTimer {
 public:
  DispatchTimer(metrics::MetricsRegistry::Counter* ctx_requests,
                metrics::LatencyHistogram* aggregate,
                metrics::LatencyHistogram* per_context) noexcept {
    if (metrics::deep_timing_enabled()) {
      ctx_requests->fetch_add(1, std::memory_order_relaxed);
      aggregate_ = aggregate;
      per_context_ = per_context;
      watch_.emplace();
    }
  }
  DispatchTimer(const DispatchTimer&) = delete;
  DispatchTimer& operator=(const DispatchTimer&) = delete;
  ~DispatchTimer() {
    if (!watch_.has_value()) return;
    const Nanoseconds elapsed = watch_->elapsed();
    aggregate_->record(elapsed);
    per_context_->record(elapsed);
  }

 private:
  metrics::LatencyHistogram* aggregate_ = nullptr;
  metrics::LatencyHistogram* per_context_ = nullptr;
  std::optional<Stopwatch> watch_;
};

// Frames a reply for the TCP listener.  Pooled: the listener releases the
// frame back to this thread's pool once it is sent, closing the recycle
// loop; the payload goes back to the pool here.
wire::Buffer reply_frame(wire::ReplyEnvelope reply) {
  auto& pool = wire::BufferPool::local();
  wire::Buffer frame =
      pool.acquire(wire::frame_size(reply.header, reply.payload.size()));
  wire::encode_frame_into(frame, reply.header, reply.payload.view());
  pool.release(std::move(reply.payload));
  return frame;
}

}  // namespace

ContextId Context::allocate_id() noexcept {
  return g_next_context_id.fetch_add(1, std::memory_order_relaxed);
}

Context::Context(ContextId id, netsim::MachineId machine,
                 netsim::Topology& topology, LocationService& location)
    : id_(id),
      machine_(machine),
      topology_(topology),
      location_(location),
      endpoint_("ctx/" + std::to_string(id)),
      pool_(proto::ProtoPool::standard()),
      requests_counter_(metrics::MetricsRegistry::global().counter_handle(
          metrics::names::kServerRequests)),
      ctx_requests_counter_(metrics::MetricsRegistry::global().counter_handle(
          metrics::names::context_requests(id))),
      dispatch_latency_(metrics::MetricsRegistry::global().latency_handle(
          metrics::names::kServerDispatchLatency)),
      ctx_dispatch_latency_(metrics::MetricsRegistry::global().latency_handle(
          metrics::names::context_latency(id))) {
  transport::EndpointRegistry::instance().bind(
      endpoint_, [this](const wire::MessageHeader& header, BytesView body) {
        return dispatch(header, body);
      });
}

Context::~Context() {
  transport::EndpointRegistry::instance().unbind(endpoint_);
  if (listener_) listener_->stop();
  // Forget the location of objects still hosted here; migrated-away
  // objects are someone else's to publish.
  sync::LockGuard lock(mutex_);
  for (const auto& [object_id, servant] : servants_) {
    location_.remove(object_id);
  }
}

void Context::enable_tcp() { enable_tcp("127.0.0.1", 0); }

void Context::enable_tcp(const std::string& listen_host, std::uint16_t port,
                         const std::string& advertise_host) {
  if (listener_) return;
  listener_ = std::make_unique<transport::TcpListener>(
      listen_host, port,
      [this](BytesView frame) { return handle_frame(frame); });
  if (!advertise_host.empty()) {
    advertise_host_ = advertise_host;
  } else if (listen_host.empty() || listen_host == "0.0.0.0") {
    advertise_host_ = "127.0.0.1";  // peers cannot dial a wildcard bind
  } else {
    advertise_host_ = listen_host;
  }
  // Republish every hosted object so references pick up the TCP address.
  std::vector<ObjectId> hosted = hosted_objects();
  for (ObjectId object_id : hosted) {
    location_.publish(object_id, current_address());
  }
}

proto::ServerAddress Context::current_address() const {
  proto::ServerAddress address;
  address.context_id = id_;
  address.machine = machine_;
  address.endpoint = endpoint_;
  if (listener_) {
    address.tcp_host = advertise_host_;
    address.tcp_port = listener_->port();
  }
  return address;
}

ObjectId Context::activate(ServantPtr servant) {
  if (!servant) {
    throw ObjectError(ErrorCode::internal, "activate: null servant");
  }
  const ObjectId object_id =
      g_next_object_id.fetch_add(1, std::memory_order_relaxed);
  activate_with_id(object_id, std::move(servant));
  return object_id;
}

void Context::activate_with_id(ObjectId object_id, ServantPtr servant) {
  if (!servant) {
    throw ObjectError(ErrorCode::internal, "activate: null servant");
  }
  {
    sync::LockGuard lock(mutex_);
    servants_[object_id] = std::move(servant);
  }
  location_.publish(object_id, current_address());
}

void Context::deactivate(ObjectId object_id, bool forget_location) {
  {
    sync::LockGuard lock(mutex_);
    servants_.erase(object_id);
  }
  if (forget_location) {
    location_.remove(object_id);
    remove_glue_of(object_id);
  }
}

ServantPtr Context::find_servant(ObjectId object_id) const {
  sync::LockGuard lock(mutex_);
  const auto it = servants_.find(object_id);
  return it == servants_.end() ? nullptr : it->second;
}

bool Context::hosts(ObjectId object_id) const {
  sync::LockGuard lock(mutex_);
  return servants_.contains(object_id);
}

std::vector<ObjectId> Context::hosted_objects() const {
  sync::LockGuard lock(mutex_);
  std::vector<ObjectId> out;
  out.reserve(servants_.size());
  for (const auto& [object_id, servant] : servants_) out.push_back(object_id);
  return out;
}

std::uint32_t Context::register_glue(ObjectId object_id,
                                     cap::CapabilityChain chain) {
  const std::uint32_t glue_id =
      g_next_glue_id.fetch_add(1, std::memory_order_relaxed);
  register_glue_with_id(glue_id, object_id, std::move(chain));
  return glue_id;
}

void Context::register_glue_with_id(std::uint32_t glue_id, ObjectId object_id,
                                    cap::CapabilityChain chain) {
  auto binding = std::make_shared<GlueBinding>();
  binding->glue_id = glue_id;
  binding->object_id = object_id;
  binding->chain = std::move(chain);
  sync::LockGuard lock(mutex_);
  glue_bindings_[glue_id] = std::move(binding);
}

std::vector<std::shared_ptr<GlueBinding>> Context::glue_bindings_of(
    ObjectId object_id) const {
  sync::LockGuard lock(mutex_);
  std::vector<std::shared_ptr<GlueBinding>> out;
  for (const auto& [glue_id, binding] : glue_bindings_) {
    if (binding->object_id == object_id) out.push_back(binding);
  }
  return out;
}

std::shared_ptr<GlueBinding> Context::find_glue(std::uint32_t glue_id) const {
  sync::LockGuard lock(mutex_);
  const auto it = glue_bindings_.find(glue_id);
  return it == glue_bindings_.end() ? nullptr : it->second;
}

void Context::remove_glue_of(ObjectId object_id) {
  sync::LockGuard lock(mutex_);
  for (auto it = glue_bindings_.begin(); it != glue_bindings_.end();) {
    if (it->second->object_id == object_id) {
      it = glue_bindings_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Context::revoke_glue(std::uint32_t glue_id) {
  sync::LockGuard lock(mutex_);
  return glue_bindings_.erase(glue_id) != 0;
}

std::uint64_t Context::next_request_id() noexcept {
  const std::uint64_t seq =
      request_counter_.fetch_add(1, std::memory_order_relaxed);
  return (static_cast<std::uint64_t>(id_) << 40) | (seq & 0xffffffffffULL);
}

wire::ReplyEnvelope Context::dispatch(const wire::MessageHeader& header,
                                      BytesView body) noexcept {
  requests_counter_->fetch_add(1, std::memory_order_relaxed);
  // The per-context series (requests counter + dispatch latency, the
  // exporter's per-context families) are deep instrumentation, armed
  // only by the introspection plane: disarmed dispatch pays one relaxed
  // load and a branch on top of the pre-existing aggregate counter, the
  // same cost contract tracing keeps (docs/observability.md).  Latency
  // covers route + servant, error paths included — two histograms from a
  // single clock-read pair.
  DispatchTimer dispatch_timer(ctx_requests_counter_, dispatch_latency_,
                               ctx_dispatch_latency_);
  try {
    return dispatch_or_throw(header, body);
  } catch (const Error& e) {
    return error_reply(header, e.code(), e.what());
  } catch (const std::exception& e) {
    return error_reply(header, ErrorCode::remote_application_error, e.what());
  }
}

wire::Buffer Context::handle_frame(BytesView frame) noexcept {
  wire::MessageHeader header;
  BytesView body;
  try {
    header = wire::decode_frame(frame, body);
  } catch (const Error& e) {
    // A frame that does not decode is a request all the same: counted
    // and timed once like any other, answered with an error reply that
    // names no request.
    requests_counter_->fetch_add(1, std::memory_order_relaxed);
    DispatchTimer dispatch_timer(ctx_requests_counter_, dispatch_latency_,
                                 ctx_dispatch_latency_);
    return reply_frame(error_reply(header, e.code(), e.what()));
  }
  try {
    return reply_frame(dispatch(header, body));
  } catch (const std::exception& e) {
    // The request is counted; its reply could not be framed (a result
    // too large to allocate): answered as the servant's failure.
    return reply_frame(
        error_reply(header, ErrorCode::remote_application_error, e.what()));
  }
}

wire::ReplyEnvelope Context::dispatch_or_throw(
    const wire::MessageHeader& header, BytesView body) {
  const bool oneway = header.type == wire::MessageType::oneway;
  if (header.type != wire::MessageType::request && !oneway) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "server received a non-request frame");
  }

  // Join the caller's trace: the wire extension carries the trace id and
  // the client span to parent under, so client and server spans land in
  // one tree even across processes.
  std::optional<trace::ContextScope> trace_scope;
  if (header.has_trace() &&
      (header.trace_flags & wire::kTraceFlagSampled) != 0 &&
      trace::TraceSink::active()) {
    trace::TraceContext adopted;
    adopted.trace_hi = header.trace_hi;
    adopted.trace_lo = header.trace_lo;
    adopted.span_id = header.trace_parent_span;
    adopted.sampled = true;
    trace_scope.emplace(adopted);
  }
  trace::Span server_span(trace::SpanKind::server, "server.dispatch");
  server_span.annotate_u64("obj", header.object_id);

  // Adopt the caller's deadline: install it as the ambient deadline so a
  // servant calling further objects spends the same budget, and refuse
  // dispatch outright when the budget is already gone — the client has
  // given up, work done now is wasted.
  std::optional<resilience::DeadlineScope> deadline_scope;
  if (header.has_deadline()) {
    deadline_scope.emplace(header.deadline_ns);
  }
  if (resilience::deadline_expired(resilience::current_deadline_ns())) {
    throw DeadlineExceeded("deadline exceeded before server dispatch");
  }

  // Zero-copy dispatch: the common path decodes arguments straight out of
  // the request body (the caller's buffer on the in-process paths, the
  // connection's receive buffer on tcp); a glued one decodes what the
  // chain opened from it.
  BytesView payload_view = body;
  wire::Buffer payload;

  cap::CallContext call;
  call.request_id = header.request_id;
  call.object_id = header.object_id;
  call.method_id = header.method_or_code;
  call.direction = cap::Direction::request;
  // Server side does not know the caller's machine; capabilities only
  // evaluate placement-dependent applicability on the client.
  call.placement = netsim::Placement{};
  call.deadline_ns = resilience::current_deadline_ns();

  std::shared_ptr<GlueBinding> binding;
  if (header.flags & wire::kFlagGlueProcessed) {
    BytesView processed = body;
    const std::uint32_t glue_id = proto::strip_glue_id(processed);
    binding = find_glue(glue_id);
    if (!binding) {
      throw CapabilityDenied(ErrorCode::capability_unknown,
                             "no glue binding " + std::to_string(glue_id) +
                                 " in context " + std::to_string(id_));
    }
    if (binding->object_id != header.object_id) {
      throw CapabilityDenied(
          ErrorCode::capability_denied,
          "glue binding does not belong to the addressed object");
    }
    // The chain reads the body past the glue id and writes what it opens
    // into a pooled buffer recycled after dispatch.
    payload = wire::BufferPool::local().acquire(processed.size());
    binding->chain.process_inbound(processed, payload, call);
    payload_view = payload.view();
  }

  ServantPtr servant = find_servant(header.object_id);
  if (!servant) {
    // Distinguish "moved elsewhere" from "gone": helps clients rebind.
    const auto current = location_.resolve(header.object_id);
    if (current && current->context_id != id_) {
      throw ObjectError(ErrorCode::stale_reference,
                        "object " + std::to_string(header.object_id) +
                            " migrated to context " +
                            std::to_string(current->context_id));
    }
    throw ObjectError(ErrorCode::object_not_found,
                      "object " + std::to_string(header.object_id) +
                          " not hosted in context " + std::to_string(id_));
  }

  wire::Decoder in(payload_view);
  // Pooled: the reply's payload.  The in-process clients release it into
  // their thread's pool after decoding, handle_frame once it is framed,
  // so a busy server recycles one warm result buffer per thread instead
  // of allocating per dispatch.
  wire::Buffer result = wire::BufferPool::local().acquire();
  wire::Encoder out(result);
  {
    trace::Span servant_span(trace::SpanKind::servant, "servant.dispatch");
    servant_span.annotate_u64("method", header.method_or_code);
    if (oneway) {
      // Fire-and-forget: the handler runs, but neither its result nor its
      // application errors travel back (Nexus RSR semantics).  The empty
      // ack only confirms delivery.
      try {
        servant->dispatch(header.method_or_code, in, out);
      } catch (const std::exception& e) {
        log_warn("orb", "oneway handler error (dropped): ", e.what());
      }
      result.clear();
    } else {
      servant->dispatch(header.method_or_code, in, out);
    }
  }
  wire::BufferPool::local().release(std::move(payload));

  wire::ReplyEnvelope reply;
  reply.header.type = wire::MessageType::reply;
  reply.header.request_id = header.request_id;
  reply.header.object_id = header.object_id;
  reply.header.method_or_code = 0;
  // Echo the transport correlation id so multiplexed replies demux even
  // when the connection reorders or batches them.
  if (header.has_correlation()) {
    reply.header.flags |= wire::kFlagCorrelation;
    reply.header.correlation_id = header.correlation_id;
  }

  if (binding && !oneway) {
    call.direction = cap::Direction::reply;
    binding->chain.process_outbound(result, call);
    reply.header.flags |= wire::kFlagGlueProcessed;
  }
  reply.payload = std::move(result);
  return reply;
}

wire::ReplyEnvelope Context::error_reply(
    const wire::MessageHeader& request_header, ErrorCode code,
    const std::string& message) const {
  metrics::MetricsRegistry::global()
      .counter_handle(metrics::names::server_error(to_string(code)))
      ->fetch_add(1, std::memory_order_relaxed);
  wire::ReplyEnvelope reply;
  reply.header.type = wire::MessageType::error_reply;
  reply.header.request_id = request_header.request_id;
  reply.header.object_id = request_header.object_id;
  reply.header.method_or_code = static_cast<std::uint32_t>(code);
  // Error replies demux like ordinary replies on a multiplexed connection.
  if (request_header.has_correlation()) {
    reply.header.flags |= wire::kFlagCorrelation;
    reply.header.correlation_id = request_header.correlation_id;
  }
  reply.payload =
      wire::encode_error_body(static_cast<std::uint32_t>(code), message);
  return reply;
}

}  // namespace ohpx::orb
