#include "ohpx/protocol/nexus_sim.hpp"

#include "ohpx/netsim/topology.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx::proto {

bool NexusSimProtocol::applicable(const CallTarget& target) const {
  return !target.address.endpoint.empty();
}

ReplyMessage NexusSimProtocol::invoke(const wire::MessageHeader& header,
                                      const wire::Buffer& payload,
                                      const CallTarget& target,
                                      CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.nexus");
  // The link follows the placement per call, so a migration across LANs
  // changes the modeled time of the very next call.
  const netsim::LinkSpec link = target.placement.link();
  ReplyMessage reply =
      transport::dispatch(target.handler, target.address.endpoint, header,
                          payload.view(), ledger, &link);
  check_reply(reply.header, header.request_id);
  return reply;
}

}  // namespace ohpx::proto
