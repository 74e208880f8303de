#include "ohpx/protocol/shm.hpp"

#include "ohpx/trace/trace.hpp"

namespace ohpx::proto {

bool ShmProtocol::applicable(const CallTarget& target) const {
  return target.placement.same_machine() && !target.address.endpoint.empty();
}

ReplyMessage ShmProtocol::invoke(const wire::MessageHeader& header,
                                 const wire::Buffer& payload,
                                 const CallTarget& target, CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.shm");
  return frame_roundtrip(target.address.endpoint, header, payload, ledger);
}

}  // namespace ohpx::proto
