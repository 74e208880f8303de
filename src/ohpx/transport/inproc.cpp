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

void EndpointRegistry::bind(const std::string& name, FrameHandler handler,
                            RequestHandler request) {
  sync::LockGuard lock(mutex_);
  Endpoint& endpoint = handlers_[name];
  endpoint.frame = std::move(handler);
  if (request) endpoint.request = std::move(request);
}

void EndpointRegistry::unbind(const std::string& name) {
  sync::LockGuard lock(mutex_);
  handlers_.erase(name);
}

FrameHandler EndpointRegistry::lookup(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = handlers_.find(name);
  if (it == handlers_.end()) {
    throw TransportError(ErrorCode::transport_unknown_endpoint,
                         "no endpoint bound to '" + name + "'");
  }
  return it->second.frame;
}

RequestHandler EndpointRegistry::lookup_request(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = handlers_.find(name);
  if (it == handlers_.end() || !it->second.request) {
    throw TransportError(ErrorCode::transport_unknown_endpoint,
                         "no request handler bound to '" + name + "'");
  }
  return it->second.request;
}

bool EndpointRegistry::contains(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  return handlers_.contains(name);
}

namespace {

void check_send_deadline() {
  if (resilience::deadline_expired(resilience::current_deadline_ns())) {
    throw DeadlineExceeded("deadline exceeded before transport send");
  }
}

// One delivery to the bound handler: what every framed in-process call
// does, with or without a link.
wire::Buffer deliver(const std::string& endpoint, const wire::Buffer& request,
                     CostLedger& ledger) {
  check_send_deadline();
  FrameHandler handler = EndpointRegistry::instance().lookup(endpoint);
  ledger.add_bytes_sent(request.size());
  ScopedRealTime timer(ledger);
  wire::Buffer reply = handler(request);
  ledger.add_bytes_received(reply.size());
  return reply;
}

}  // namespace

wire::Buffer roundtrip(const std::string& endpoint, const wire::Buffer& request,
                       CostLedger& ledger, const netsim::LinkSpec* link) {
  if (link == nullptr) return deliver(endpoint, request, ledger);

  ledger.add_modeled(link->transfer_time(request.size()));

  resilience::FaultDecision fault;
  auto& injector = resilience::FaultInjector::instance();
  if (injector.active()) {
    fault = injector.decide(endpoint);
  }

  switch (fault.kind) {
    case resilience::FaultKind::drop:
      // The frame dies on the simulated wire; the bound handler never runs.
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
      (void)deliver(endpoint, request, ledger);
      break;
    case resilience::FaultKind::none:
    case resilience::FaultKind::corrupt:
      break;
  }

  wire::Buffer reply = deliver(endpoint, request, ledger);
  ledger.add_modeled(link->transfer_time(reply.size()));

  if (fault.kind == resilience::FaultKind::corrupt && reply.size() > 0) {
    // Flip the last byte of the reply.  For a reply with a body that is a
    // body byte (a checksum capability catches it); for a bare header it
    // lands in the CRC field and framing catches it.  Either way the
    // corruption is *detected*, never silently consumed.
    reply.data()[reply.size() - 1] ^= 0xff;
  }
  return reply;
}

wire::ReplyEnvelope dispatch(const std::string& endpoint,
                             const wire::MessageHeader& header, BytesView body,
                             CostLedger& ledger) {
  check_send_deadline();
  RequestHandler handler =
      EndpointRegistry::instance().lookup_request(endpoint);
  ledger.add_bytes_sent(wire::frame_size(header, body.size()));
  wire::ReplyEnvelope reply;
  {
    ScopedRealTime timer(ledger);
    reply = handler(header, body);
  }
  reply.frame_size = wire::frame_size(reply.header, reply.payload.size());
  ledger.add_bytes_received(reply.frame_size);
  return reply;
}

}  // namespace ohpx::transport
