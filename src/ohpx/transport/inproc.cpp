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

void EndpointRegistry::bind(const std::string& name, FrameHandler handler) {
  sync::LockGuard lock(mutex_);
  handlers_[name] = std::move(handler);
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
  return it->second;
}

bool EndpointRegistry::contains(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  return handlers_.contains(name);
}

namespace {

// One delivery to the bound handler: what every in-process call does,
// with or without a link.
wire::Buffer deliver(const std::string& endpoint, const wire::Buffer& request,
                     CostLedger& ledger) {
  if (resilience::deadline_expired(resilience::current_deadline_ns())) {
    throw DeadlineExceeded("deadline exceeded before transport send");
  }
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

}  // namespace ohpx::transport
