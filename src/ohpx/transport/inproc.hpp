// In-process transport: a process-wide registry of named endpoints and the
// one call that exchanges a frame with one.  This is the bearer for the
// shared-memory and relay protocols and, with a modeled link, for the
// simulated network protocol (nexus-tcp): frames go to the bound handler
// directly, and a link only adds modeled wire time and the fault plan.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/buffer.hpp"

namespace ohpx::netsim {
struct LinkSpec;
}

namespace ohpx::transport {

/// Server-side frame handler: consumes a request frame, produces the reply
/// frame.  Must be thread-safe; may be invoked concurrently.
using FrameHandler = std::function<wire::Buffer(const wire::Buffer&)>;

/// Process-wide name → handler table.  An "endpoint name" plays the role
/// of a host:port for in-process communication; proto-data inside object
/// references carries these names.
class EndpointRegistry {
 public:
  static EndpointRegistry& instance();

  /// Binds `name`; rebinding an existing name replaces the handler (this is
  /// what migration does when a context re-homes an object's endpoint).
  void bind(const std::string& name, FrameHandler handler);

  void unbind(const std::string& name);

  /// Looks up a handler; throws TransportError(transport_unknown_endpoint).
  FrameHandler lookup(const std::string& name) const;

  bool contains(const std::string& name) const;

 private:
  EndpointRegistry() = default;

  mutable sync::Mutex mutex_{"transport.inproc.endpoints"};
  std::map<std::string, FrameHandler> handlers_ OHPX_GUARDED_BY(mutex_);
};

/// Sends `request` to the handler bound to `endpoint` and returns its
/// reply frame.  The handler is looked up per call, so a rebinding
/// (migration) takes effect on the next call.  The bytes both ways and the
/// real time of the exchange go on `ledger`.  With a `link`, the call also
/// crosses the simulated network: the link's modeled time both ways goes
/// on `ledger`, and the seeded fault plan (resilience/fault_plan.hpp) may
/// drop, delay, duplicate or corrupt the exchange.  Throws
/// DeadlineExceeded when the caller's budget is spent before the send.
wire::Buffer roundtrip(const std::string& endpoint, const wire::Buffer& request,
                       CostLedger& ledger,
                       const netsim::LinkSpec* link = nullptr);

}  // namespace ohpx::transport
