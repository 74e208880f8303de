#include "ohpx/protocol/shm.hpp"

#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx::proto {

bool ShmProtocol::applicable(const CallTarget& target) const {
  return target.placement.same_machine() && !target.address.endpoint.empty();
}

ReplyMessage ShmProtocol::invoke(const wire::MessageHeader& header,
                                 const wire::Buffer& payload,
                                 const CallTarget& target, CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.shm");
  ReplyMessage reply = transport::dispatch(
      target.handler, target.address.endpoint, header, payload.view(), ledger);
  check_reply(reply.header, header.request_id);
  return reply;
}

}  // namespace ohpx::proto
