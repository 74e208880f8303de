// Client-side protocol object (the paper's *proto-object*, §3.1).
//
// A proto-object encapsulates one way of carrying a remote request to a
// server object.  The ORB instantiates proto-objects from the OR's protocol
// table, asks each whether it is applicable for the current placement, and
// invokes the first applicable one the local proto-pool allows (§3.2).
//
// The server half (the paper's *proto-class*) is a frame handler the server
// context binds into the transport layer; see ohpx/orb/context.*.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "ohpx/common/clock.hpp"
#include "ohpx/common/future.hpp"
#include "ohpx/protocol/target.hpp"
#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::transport {
class Channel;
}

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
  /// when client and server share a machine).
  virtual bool applicable(const CallTarget& target) const = 0;

  /// True when applicable() is a pure function of `target` — the common
  /// case, and what lets the ORB memoize protocol selection keyed on the
  /// location epoch and pool generation.  Protocols whose applicability
  /// also depends on external state (e.g. relay: "is the gateway bound
  /// right now?") must return false so every call re-evaluates, keeping
  /// the paper's per-request adaptivity contract exact.
  virtual bool applicability_is_stable() const noexcept { return true; }

  /// Carries one request to the server and returns its reply.  The caller
  /// keeps ownership of `payload`; the protocol may transform it in place
  /// (capability chains) without copying.  Costs are charged to `ledger`.
  virtual ReplyMessage invoke(const wire::MessageHeader& header,
                              wire::Buffer& payload, const CallTarget& target,
                              CostLedger& ledger) = 0;

  /// True when invoke() leaves `payload` byte-identical on return — the
  /// caller can then reuse the buffer for a stale-reference retry with no
  /// defensive copy.  Glue (whose chain rewrites the payload) returns
  /// false; plain transports only read it.
  virtual bool preserves_payload() const noexcept { return true; }

  /// True when invoke_async() below is genuinely non-blocking (the call is
  /// queued on an event loop and the future settles later).  Protocols
  /// that leave the default get their async calls run on a worker thread
  /// by the ORB instead.
  virtual bool supports_async() const noexcept { return false; }

  /// Asynchronous variant of invoke(): queues the call and returns a
  /// future that settles with the reply (or the transport/deadline error).
  /// Unlike invoke() there is no CostLedger — the exchange completes after
  /// this stack frame is gone, so there is nothing per-call to charge it
  /// to (aggregate reactor metrics cover the async path).  The default
  /// implementation performs the exchange inline and returns an
  /// already-settled future; callers wanting overlap must check
  /// supports_async() first.
  virtual Future<ReplyMessage> invoke_async(const wire::MessageHeader& header,
                                            wire::Buffer& payload,
                                            const CallTarget& target);

  /// Human-readable description for logs ("glue[encryption,quota]→nexus-tcp").
  virtual std::string describe() const { return std::string(name()); }
};

using ProtocolPtr = std::unique_ptr<Protocol>;

/// Shared helper for concrete protocols: frames the request, performs the
/// roundtrip on `channel`, parses and validates the reply frame.
ReplyMessage frame_roundtrip(transport::Channel& channel,
                             const wire::MessageHeader& header,
                             const wire::Buffer& payload, CostLedger& ledger);

/// Parses and validates a raw reply frame (as delivered by the reactor)
/// against the request it answers: rejects request-typed frames and
/// request-id mismatches, and copies the body into a pooled buffer.
ReplyMessage parse_reply_frame(const wire::Buffer& frame,
                               std::uint64_t expect_request_id);

}  // namespace ohpx::proto
