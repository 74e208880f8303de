// In-process transport: a process-wide registry of named endpoints, the
// one call that exchanges a frame with one, and the one call that hands a
// request to one with no frame.  dispatch() is the bearer of the
// shared-memory protocol and, with a modeled link, of the simulated
// network protocol (nexus-tcp): the bound request handler serves the
// caller's header and body on the calling thread, nothing is framed, and
// a link only adds modeled wire time and the fault plan.  roundtrip() is
// the relay protocol's bearer: frames go to the bound frame handler.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::netsim {
struct LinkSpec;
}

namespace ohpx::transport {

/// Server-side frame handler: consumes a request frame, produces the reply
/// frame.  Must be thread-safe; may be invoked concurrently.
using FrameHandler = std::function<wire::Buffer(const wire::Buffer&)>;

/// Server-side request handler: serves one request given as its header
/// and body, on the calling thread, and returns the reply (an error reply
/// on any failure).  The body is only read, and only during the call.
/// Must be thread-safe; may be invoked concurrently.
using RequestHandler = std::function<wire::ReplyEnvelope(
    const wire::MessageHeader&, BytesView)>;

/// Process-wide name → handler table.  An "endpoint name" plays the role
/// of a host:port for in-process communication; proto-data inside object
/// references carries these names.
class EndpointRegistry {
 public:
  static EndpointRegistry& instance();

  /// Binds `name` to a frame handler and, for a server context, the
  /// request handler beside it.  Rebinding an existing name replaces the
  /// frame handler, and the request handler only when one is given: a
  /// frame handler alone keeps the request handler already bound.  shm
  /// and nexus-tcp calls go to the request handler and never pass through
  /// the frame handler, so a frame handler wrapped this way sees only the
  /// framed bearers' calls (relay); a fault injector for nexus-tcp wraps
  /// the request handler.  A name first bound with no request handler
  /// takes only frames.
  void bind(const std::string& name, FrameHandler handler,
            RequestHandler request = nullptr);

  void unbind(const std::string& name);

  /// Looks up a frame handler; throws
  /// TransportError(transport_unknown_endpoint).
  FrameHandler lookup(const std::string& name) const;

  /// Looks up a request handler; throws
  /// TransportError(transport_unknown_endpoint) when `name` is unbound or
  /// takes only frames.
  RequestHandler lookup_request(const std::string& name) const;

  bool contains(const std::string& name) const;

 private:
  EndpointRegistry() = default;

  struct Endpoint {
    FrameHandler frame;
    RequestHandler request;
  };

  mutable sync::Mutex mutex_{"transport.inproc.endpoints"};
  std::map<std::string, Endpoint> handlers_ OHPX_GUARDED_BY(mutex_);
};

/// Sends `request` to the frame handler bound to `endpoint` and returns its
/// reply frame.  The handler is looked up per call, so a rebinding
/// (migration) takes effect on the next call.  The bytes both ways and the
/// real time of the exchange go on `ledger`.  Throws DeadlineExceeded when
/// the caller's budget is spent before the send.
wire::Buffer roundtrip(const std::string& endpoint, const wire::Buffer& request,
                       CostLedger& ledger);

/// Hands `header` and `body` to the request handler bound to `endpoint`
/// and returns its reply: no frame is built, checked or copied either
/// way.  Like roundtrip() it looks the handler up per call and throws
/// DeadlineExceeded when the caller's budget is spent before the send;
/// `ledger` gets the bytes the two frames would have carried and the real
/// time of the call.
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
wire::ReplyEnvelope dispatch(const std::string& endpoint,
                             const wire::MessageHeader& header, BytesView body,
                             CostLedger& ledger,
                             const netsim::LinkSpec* link = nullptr);

}  // namespace ohpx::transport
