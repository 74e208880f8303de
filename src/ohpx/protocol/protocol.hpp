// Client-side protocol object (the paper's *proto-object*, §3.1).
//
// A proto-object encapsulates one way of carrying a remote request to a
// server object.  The ORB instantiates proto-objects from the OR's protocol
// table, asks each whether it is applicable for the current placement, and
// invokes the first applicable one the local proto-pool allows (§3.2).
//
// The server half (the paper's *proto-class*) is the server context's
// pipeline: the one request handler it binds into the endpoint registry,
// which every in-process bearer (shm, relay, nexus-tcp) calls with the
// header and body, and the frame handler its TCP listener calls with each
// request frame; see ohpx/orb/context.*.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "ohpx/common/clock.hpp"
#include "ohpx/common/future.hpp"
#include "ohpx/protocol/target.hpp"
#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::proto {

/// The protocol layer's reply vocabulary — an alias, not a wrapper: the
/// reactor settles the same struct, so the tcp async path hands its
/// future through this layer without a conversion stage per call.
using ReplyMessage = wire::ReplyEnvelope;

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Registry name, e.g. "shm", "nexus-tcp", "tcp", "glue".  Must view
  /// static storage: async settlement records it after the call returns.
  virtual std::string_view name() const noexcept = 0;

  /// Whether this protocol can serve a call to `target` (paper §4.3: every
  /// protocol has an applicability attribute; shared memory applies only
  /// when client and server share a machine).  Reads `target` and the
  /// endpoint registry (e.g. relay: "is the gateway bound?"), and nothing
  /// else: the ORB memoizes selection keyed on the location epoch, the
  /// pool generation and the registry's generation, so an answer that
  /// read other state would be served stale.
  virtual bool applicable(const CallTarget& target) const = 0;

  /// Carries one request to the server and returns its reply.  The
  /// protocol only reads `payload` (glue seals a copy of its own), so the
  /// caller retries a failed attempt with the same buffer.  Costs are
  /// charged to `ledger`.
  virtual ReplyMessage invoke(const wire::MessageHeader& header,
                              const wire::Buffer& payload,
                              const CallTarget& target, CostLedger& ledger) = 0;

  /// Asynchronous variant of invoke(), the one the ORB calls for every
  /// call_async: returns a future that settles with the reply (or the
  /// transport/deadline error).  Unlike invoke() there is no CostLedger —
  /// the exchange may complete after this stack frame is gone, so there
  /// is nothing per-call to charge it to (aggregate reactor metrics cover
  /// the async path).  The default performs the exchange inline, on the
  /// calling thread, and returns an already-settled future: right for the
  /// in-process bearers (shm, nexus-sim, relay), whose exchange is a
  /// function call.  tcp overrides it to queue the call on the reactor;
  /// glue to wrap its chain around its delegate's.
  virtual Future<ReplyMessage> invoke_async(const wire::MessageHeader& header,
                                            const wire::Buffer& payload,
                                            const CallTarget& target);

  /// Human-readable description for logs ("glue[encryption,quota]→nexus-tcp").
  virtual std::string describe() const { return std::string(name()); }
};

using ProtocolPtr = std::unique_ptr<Protocol>;

/// The one check of a reply header against the request it answers:
/// throws ProtocolError(protocol_unknown) for a request-typed frame or a
/// reply for another request id.
void check_reply(const wire::MessageHeader& header,
                 std::uint64_t expect_request_id);

}  // namespace ohpx::proto
