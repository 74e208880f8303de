// In-process transport: a process-wide registry of named endpoints and the
// one call that hands a request to one.  dispatch() is the bearer of every
// in-process protocol: shared memory, relay and, with a modeled link, the
// simulated network (nexus-tcp).  The caller finds the endpoint's handler
// (the ORB once per selection, keyed on the registry's generation), and
// dispatch() calls it with the caller's header and body on the calling
// thread: nothing is looked up or framed per call, and a link only adds
// modeled wire time and the fault plan.  Frames exist only on the TCP
// wire (tcp.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::netsim {
struct LinkSpec;
}

namespace ohpx::transport {

/// Server-side request handler: serves one request given as its header
/// and body, on the calling thread, and returns the reply (an error reply
/// on any failure).  The body is only read, and only during the call.
/// Must be thread-safe; may be invoked concurrently.
using RequestHandler = std::function<wire::ReplyEnvelope(
    const wire::MessageHeader&, BytesView)>;

/// A bound request handler, shared: whoever found it may call it after
/// its name was rebound or unbound, until it finds the name again.
using EndpointHandle = std::shared_ptr<const RequestHandler>;

/// Process-wide name → handler table.  An "endpoint name" plays the role
/// of a host:port for in-process communication; proto-data inside object
/// references carries these names.
class EndpointRegistry {
 public:
  static EndpointRegistry& instance();

  /// Binds `name` to `handler`; rebinding an existing name replaces it.
  void bind(const std::string& name, RequestHandler handler);

  void unbind(const std::string& name);

  /// The handler bound to `name`, or null.
  EndpointHandle find(const std::string& name) const;

  /// Bumped by every bind and by every unbind that removes a name.  Read
  /// before a find(), it keys what was found: while it still reads the
  /// same, no name was bound or unbound since.
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  EndpointRegistry() = default;

  mutable sync::Mutex mutex_{"transport.inproc.endpoints"};
  std::map<std::string, EndpointHandle> handlers_ OHPX_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> generation_{1};
};

/// Hands `header` and `body` to `handler`, found bound to `endpoint`, and
/// returns its reply: no frame is built, checked or copied either way.  A
/// null handler fails with TransportError(transport_unknown_endpoint);
/// `endpoint` names the endpoint in that error and keys the fault plan.
/// Throws DeadlineExceeded when the caller's budget is spent before the
/// send.  `ledger` gets the bytes the two frames would have carried and
/// the real time of the call.
///
/// With a `link`, the call crosses the simulated network: the link's
/// modeled time for those frame sizes goes on `ledger` both ways, and the
/// seeded fault plan (resilience/fault_plan.hpp) may drop the request
/// (TransportError), delay it, deliver it twice (the caller sees the
/// second reply) or corrupt the reply.  With no frame to carry it,
/// corruption flips the last byte of the reply body, the byte a frame
/// would have ended with, so a checksum capability catches it; a reply
/// with no body ends in the header's CRC, so the call fails with
/// WireError(wire_bad_checksum) as decoding that frame would.  The
/// deadline is checked before each delivery.
wire::ReplyEnvelope dispatch(const EndpointHandle& handler,
                             const std::string& endpoint,
                             const wire::MessageHeader& header, BytesView body,
                             CostLedger& ledger,
                             const netsim::LinkSpec* link = nullptr);

}  // namespace ohpx::transport
