#include "ohpx/protocol/tcp_proto.hpp"

#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx::proto {
namespace {

// The reactor already decoded the frame (header, body, CRC) on its loop
// thread to demultiplex by correlation id — RawReply and ReplyMessage are
// the same struct, so all that's left is the sanity parse_reply_frame
// gives other protocols: right frame type, right request.
ReplyMessage validate_reply(ReplyMessage reply,
                            std::uint64_t expect_request_id) {
  if (reply.header.type == wire::MessageType::request) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "request frame received where reply expected");
  }
  if (reply.header.request_id != expect_request_id) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "reply for a different request id");
  }
  return reply;
}

}  // namespace

bool TcpProtocol::applicable(const CallTarget& target) const {
  return target.address.tcp_port != 0 && !target.address.tcp_host.empty();
}

ReplyMessage TcpProtocol::invoke(const wire::MessageHeader& header,
                                 wire::Buffer& payload,
                                 const CallTarget& target, CostLedger& ledger) {
  // Sync bridge over the reactor: submit, then park on the future.  The
  // reactor throws backpressure/deadline refusals synchronously (before
  // anything is queued) and surfaces wire-level failures through the
  // future — either way they leave this frame as ordinary exceptions for
  // CallCore's retry/breaker machinery.  A connection gone stale (server
  // restarted or migrated) fails this attempt; the reactor has already
  // reaped it, so CallCore's retry re-dials fresh.
  trace::Span span(trace::SpanKind::transport, "proto.tcp");
  Future<transport::RawReply> future = transport::Reactor::global().submit(
      target.address.tcp_host, target.address.tcp_port, header,
      payload.view());
  ledger.add_bytes_sent(wire::kHeaderSize + payload.size());
  transport::RawReply raw;
  {
    ScopedRealTime timer(ledger);
    raw = future.get();
  }
  ledger.add_bytes_received(raw.frame_size);
  return validate_reply(std::move(raw), header.request_id);
}

Future<ReplyMessage> TcpProtocol::invoke_async(
    const wire::MessageHeader& header, wire::Buffer& payload,
    const CallTarget& target) {
  // RawReply *is* ReplyMessage: the reactor's future passes through with
  // no map stage — no shared-state allocation, no extra settlement, no
  // type-erased continuation per call.  Request-id validation happens in
  // the invocation layer's settlement (CallCore::finish_async_reply).
  return transport::Reactor::global().submit(
      target.address.tcp_host, target.address.tcp_port, header,
      payload.view());
}

}  // namespace ohpx::proto
