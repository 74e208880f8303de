#include "ohpx/protocol/glue.hpp"

#include <utility>

#include "ohpx/common/error.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::proto {
namespace {

// The sealed request: the payload, room for what the chain appends (tags,
// trailers), and the glue id slid in front of them.
std::size_t sealed_size(const wire::Buffer& payload) {
  return kGlueIdSize + payload.size() + 64;
}

}  // namespace

GlueProtocol::GlueProtocol(std::uint32_t glue_id, cap::CapabilityChain chain,
                           ProtocolPtr delegate)
    : glue_id_(glue_id), chain_(std::move(chain)), delegate_(std::move(delegate)) {
  if (!delegate_) {
    throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                        "glue protocol requires a delegate");
  }
}

bool GlueProtocol::applicable(const CallTarget& target) const {
  return chain_.applicable(target.placement) && delegate_->applicable(target);
}

cap::CallContext GlueProtocol::process_request(wire::MessageHeader& header,
                                               const wire::Buffer& payload,
                                               wire::Buffer& sealed,
                                               const CallTarget& target) {
  cap::CallContext call;
  call.request_id = header.request_id;
  call.object_id = header.object_id;
  call.method_id = header.method_or_code;
  call.direction = cap::Direction::request;
  call.placement = target.placement;
  call.deadline_ns = resilience::tighten_deadline(
      resilience::current_deadline_ns(), header.deadline_ns);
  chain_.process_outbound(payload.view(), sealed, call);
  prepend_glue_id(sealed, glue_id_);
  header.flags |= wire::kFlagGlueProcessed;
  return call;
}

void GlueProtocol::process_reply(ReplyMessage& reply, cap::CallContext call) {
  if (!(reply.header.flags & wire::kFlagGlueProcessed)) return;
  call.direction = cap::Direction::reply;
  chain_.process_inbound(reply.payload, call);
}

ReplyMessage GlueProtocol::invoke(const wire::MessageHeader& header,
                                  const wire::Buffer& payload,
                                  const CallTarget& target, CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.glue");
  wire::MessageHeader glue_header = header;
  auto& pool = wire::BufferPool::local();
  wire::Buffer sealed = pool.acquire(sealed_size(payload));
  cap::CallContext call;
  {
    ScopedRealTime timer(ledger);
    call = process_request(glue_header, payload, sealed, target);
  }
  ReplyMessage reply = delegate_->invoke(glue_header, sealed, target, ledger);
  pool.release(std::move(sealed));
  ScopedRealTime timer(ledger);
  process_reply(reply, call);
  return reply;
}

Future<ReplyMessage> GlueProtocol::invoke_async(
    const wire::MessageHeader& header, const wire::Buffer& payload,
    const CallTarget& target) {
  trace::Span span(trace::SpanKind::transport, "proto.glue");
  wire::MessageHeader glue_header = header;
  auto& pool = wire::BufferPool::local();
  wire::Buffer sealed = pool.acquire(sealed_size(payload));
  const cap::CallContext call =
      process_request(glue_header, payload, sealed, target);
  // The delegate has framed `sealed` by the time invoke_async() returns.
  Future<ReplyMessage> exchange =
      delegate_->invoke_async(glue_header, sealed, target);
  pool.release(std::move(sealed));
  // `this` outlives the stage: the caller keeps the owning CallCore alive
  // until the future it gets back settles, and that future settles only
  // after this stage returns.
  return exchange.map<ReplyMessage>(
      [this, call](Future<ReplyMessage> settled) {
        ReplyMessage reply = settled.get();
        check_reply(reply.header, call.request_id);
        process_reply(reply, call);
        return reply;
      });
}

std::string GlueProtocol::describe() const {
  return "glue[" + chain_.describe() + "]->" + delegate_->describe();
}

}  // namespace ohpx::proto
