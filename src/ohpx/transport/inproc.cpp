#include "ohpx/transport/inproc.hpp"

#include <utility>

#include "ohpx/common/error.hpp"
#include "ohpx/netsim/topology.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/resilience/fault_plan.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::transport {

EndpointRegistry& EndpointRegistry::instance() {
  static EndpointRegistry registry;
  return registry;
}

void EndpointRegistry::bind(const std::string& name, RequestHandler handler) {
  auto bound = std::make_shared<const RequestHandler>(std::move(handler));
  sync::LockGuard lock(mutex_);
  handlers_[name] = std::move(bound);
  generation_.fetch_add(1, std::memory_order_release);
}

void EndpointRegistry::unbind(const std::string& name) {
  sync::LockGuard lock(mutex_);
  if (handlers_.erase(name) != 0) {
    generation_.fetch_add(1, std::memory_order_release);
  }
}

EndpointHandle EndpointRegistry::find(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = handlers_.find(name);
  return it == handlers_.end() ? nullptr : it->second;
}

namespace {

// The simulated network around dispatch(): the request's modeled wire
// time, the fault plan's decision, one or two deliveries (each checks the
// deadline), the reply's modeled wire time.  Time is charged from the
// sizes the frames would have had, so a call costs what its framed
// exchange did.
wire::ReplyEnvelope dispatch_over(const EndpointHandle& handler,
                                  const std::string& endpoint,
                                  const wire::MessageHeader& header,
                                  BytesView body, CostLedger& ledger,
                                  const netsim::LinkSpec& link) {
  ledger.add_modeled(
      link.transfer_time(wire::frame_size(header, body.size())));

  resilience::FaultDecision fault;
  auto& injector = resilience::FaultInjector::instance();
  if (injector.active()) {
    fault = injector.decide(endpoint);
  }

  switch (fault.kind) {
    case resilience::FaultKind::drop:
      // The request dies on the simulated wire; the handler never runs.
      throw TransportError(ErrorCode::transport_io,
                           "fault injection: frame to '" + endpoint +
                               "' dropped");
    case resilience::FaultKind::delay:
      resilience::sleep_for(fault.delay);
      ledger.add_modeled(fault.delay);
      break;
    case resilience::FaultKind::duplicate:
      // The network delivered the request twice; the first reply is lost,
      // the second is what the caller sees (server-side counters observe
      // both deliveries).
      (void)dispatch(handler, endpoint, header, body, ledger);
      break;
    case resilience::FaultKind::none:
    case resilience::FaultKind::corrupt:
      break;
  }

  wire::ReplyEnvelope reply = dispatch(handler, endpoint, header, body, ledger);
  ledger.add_modeled(link.transfer_time(reply.frame_size));

  if (fault.kind == resilience::FaultKind::corrupt) {
    // The byte a reply frame ends with: the body's last byte, which a
    // checksum capability catches, or for a bare header its CRC, which
    // framing catches.  Either way the corruption is *detected*, never
    // silently consumed.
    if (reply.payload.empty()) {
      throw WireError(ErrorCode::wire_bad_checksum,
                      "frame header CRC mismatch");
    }
    reply.payload.data()[reply.payload.size() - 1] ^= 0xff;
  }
  return reply;
}

}  // namespace

wire::ReplyEnvelope dispatch(const EndpointHandle& handler,
                             const std::string& endpoint,
                             const wire::MessageHeader& header, BytesView body,
                             CostLedger& ledger, const netsim::LinkSpec* link) {
  if (link != nullptr) {
    return dispatch_over(handler, endpoint, header, body, ledger, *link);
  }
  if (resilience::deadline_expired(resilience::current_deadline_ns())) {
    throw DeadlineExceeded("deadline exceeded before transport send");
  }
  if (handler == nullptr) {
    throw TransportError(ErrorCode::transport_unknown_endpoint,
                         "no endpoint bound to '" + endpoint + "'");
  }
  ledger.add_bytes_sent(wire::frame_size(header, body.size()));
  wire::ReplyEnvelope reply;
  {
    ScopedRealTime timer(ledger);
    reply = (*handler)(header, body);
  }
  reply.frame_size = wire::frame_size(reply.header, reply.payload.size());
  ledger.add_bytes_received(reply.frame_size);
  return reply;
}

}  // namespace ohpx::transport
