#include "ohpx/protocol/tcp_proto.hpp"

#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx::proto {

bool TcpProtocol::applicable(const CallTarget& target) const {
  return target.address.tcp_port != 0 && !target.address.tcp_host.empty();
}

ReplyMessage TcpProtocol::invoke(const wire::MessageHeader& header,
                                 const wire::Buffer& payload,
                                 const CallTarget& target, CostLedger& ledger) {
  // The reactor's sync exchange: the calling thread sends its frame and
  // reads its reply itself when the connection is idle, and otherwise
  // waits on the loop.  Backpressure and spent deadlines are refused
  // before anything is queued; wire-level failures settle the call — either
  // way they leave this frame as ordinary exceptions for CallCore's
  // retry/breaker machinery.  A connection gone stale (server restarted
  // or migrated) fails this attempt and is dropped, so CallCore's retry
  // re-dials fresh.
  trace::Span span(trace::SpanKind::transport, "proto.tcp");
  transport::RawReply raw;
  {
    ScopedRealTime timer(ledger);
    raw = transport::Reactor::global().exchange(
        target.address.tcp_host, target.address.tcp_port, header,
        payload.view());
  }
  // The request frame as the reactor sent it: the header carries no
  // correlation id until Reactor::stage stamps one on it.
  ledger.add_bytes_sent(wire::frame_size(header, payload.size()) +
                        wire::kCorrelationExtensionSize);
  ledger.add_bytes_received(raw.frame_size);
  // The reactor already decoded the frame (header, body, CRC) to
  // demultiplex by correlation id, and RawReply is ReplyMessage: all that
  // is left is the reply check.
  check_reply(raw.header, header.request_id);
  return raw;
}

Future<ReplyMessage> TcpProtocol::invoke_async(
    const wire::MessageHeader& header, const wire::Buffer& payload,
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
