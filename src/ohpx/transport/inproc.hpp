// In-process transport: a process-wide registry of named endpoints, the
// one call that exchanges a frame with one, and the one call that hands a
// request to one with no frame.  roundtrip() is the bearer for the relay
// protocol and, with a modeled link, for the simulated network protocol
// (nexus-tcp): frames go to the bound frame handler directly, and a link
// only adds modeled wire time and the fault plan.  dispatch() is the
// shared-memory protocol's bearer: the bound request handler serves the
// caller's header and body on the calling thread, and nothing is framed.
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
  /// frame handler alone (a test's fault injector, say) keeps the shm
  /// service already bound.  shm calls go to the request handler and never
  /// pass through the frame handler, so a frame handler wrapped this way
  /// sees only the framed bearers' calls.  A name first bound with no
  /// request handler takes only frames.
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
/// real time of the exchange go on `ledger`.  With a `link`, the call also
/// crosses the simulated network: the link's modeled time both ways goes
/// on `ledger`, and the seeded fault plan (resilience/fault_plan.hpp) may
/// drop, delay, duplicate or corrupt the exchange.  Throws
/// DeadlineExceeded when the caller's budget is spent before the send.
wire::Buffer roundtrip(const std::string& endpoint, const wire::Buffer& request,
                       CostLedger& ledger,
                       const netsim::LinkSpec* link = nullptr);

/// Hands `header` and `body` to the request handler bound to `endpoint`
/// and returns its reply: no frame is built, checked or copied either
/// way.  Like roundtrip() it looks the handler up per call and throws
/// DeadlineExceeded when the caller's budget is spent before the send;
/// `ledger` gets the bytes the two frames would have carried and the real
/// time of the call.
wire::ReplyEnvelope dispatch(const std::string& endpoint,
                             const wire::MessageHeader& header, BytesView body,
                             CostLedger& ledger);

}  // namespace ohpx::transport
