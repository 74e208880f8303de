#include "ohpx/protocol/protocol.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::proto {

// The in-process bearers' async face: the exchange runs inline on the
// calling thread and the returned future is already settled, so a
// continuation mapped onto it runs on the caller too.
Future<ReplyMessage> Protocol::invoke_async(const wire::MessageHeader& header,
                                            const wire::Buffer& payload,
                                            const CallTarget& target) {
  Promise<ReplyMessage> promise;
  try {
    CostLedger ledger;
    ledger.disable_real_timing();
    promise.set_value(invoke(header, payload, target, ledger));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return promise.future();
}

void check_reply(const wire::MessageHeader& header,
                 std::uint64_t expect_request_id) {
  if (header.type == wire::MessageType::request) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "request frame received where reply expected");
  }
  if (header.request_id != expect_request_id) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "reply for a different request id");
  }
}

ReplyMessage frame_roundtrip(const std::string& endpoint,
                             const wire::MessageHeader& header,
                             const wire::Buffer& payload, CostLedger& ledger,
                             const netsim::LinkSpec* link) {
  auto& pool = wire::BufferPool::local();
  wire::Buffer request_frame =
      pool.acquire(wire::kHeaderSize + payload.size());
  {
    ScopedRealTime timer(ledger);
    trace::Span encode_span(trace::SpanKind::encode, "wire.encode");
    encode_span.annotate_u64("bytes", payload.size());
    wire::encode_frame_into(request_frame, header, payload.view());
  }
  wire::Buffer reply_frame;
  {
    // The transport span covers send + server turnaround + receive; on the
    // in-process path the server's own spans nest inside it time-wise but
    // parent under the client call via the wire context, not this thread.
    trace::Span transport_span(trace::SpanKind::transport, "transport");
    reply_frame = transport::roundtrip(endpoint, request_frame, ledger, link);
  }
  pool.release(std::move(request_frame));
  return decode_reply(std::move(reply_frame), header, ledger);
}

ReplyMessage decode_reply(wire::Buffer reply_frame,
                          const wire::MessageHeader& header,
                          CostLedger& ledger) {
  ScopedRealTime timer(ledger);
  trace::Span decode_span(trace::SpanKind::decode, "wire.decode");
  BytesView body;
  ReplyMessage reply;
  reply.header = wire::decode_frame(reply_frame.view(), body);
  check_reply(reply.header, header.request_id);
  // Pool the body copy too: the stub releases it after decoding, so the
  // in-process loop (request frame, reply frame, reply body) runs
  // allocation-free at steady state.
  auto& pool = wire::BufferPool::local();
  reply.payload = pool.acquire(body.size());
  reply.payload.append(body);
  pool.release(std::move(reply_frame));
  return reply;
}

}  // namespace ohpx::proto
