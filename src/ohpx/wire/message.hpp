// Request/reply frame format shared by every transport.
//
// Frame = fixed 32-byte header (CRC-protected) + body.
//
//   offset  size  field
//   0       4     magic 'OHPX'
//   4       1     version (currently 1)
//   5       1     type (request / reply / error_reply)
//   6       2     flags (bit 0: body was processed by a glue chain;
//                        bit 1: a trace-context extension follows)
//   8       8     request id (client-chosen, echoed in the reply)
//   16      8     object id
//   24      4     method id (requests) / error code (error replies)
//   28      4     CRC-32 of bytes [0, 28)
//
// When kFlagTraceContext is set, a 25-byte trace-context extension sits
// between the fixed header and the body (the distributed-tracing identity
// from ohpx/trace/, so server dispatch and delegated calls join the
// caller's trace):
//
//   offset  size  field
//   32      8     trace id, high half
//   40      8     trace id, low half
//   48      8     parent span id (the client span the server parents under)
//   56      1     trace flags (bit 0: sampled)
//
// The extension is outside the CRC (it is advisory — a corrupt trace id
// cannot corrupt a call) and is skipped before capability/glue processing,
// which only ever sees the body.
//
// When kFlagDeadline is set, an 8-byte deadline extension follows the
// trace extension (or the fixed header when no trace context is carried):
// the call's absolute deadline in nanoseconds on the resilience clock
// (ohpx/resilience/clock.hpp), 0 meaning unbounded.  Like the trace
// extension it is advisory and outside the CRC; the server tightens its
// dispatch budget against it, it never loosens anything.
//
// When kFlagCorrelation is set, an 8-byte correlation-id extension follows
// the deadline extension (or whichever earlier extension is present; the
// extension order is fixed: trace, deadline, correlation).  The id is
// assigned by a multiplexing transport (the epoll reactor) per in-flight
// call on one connection and echoed verbatim in the matching reply —
// including error replies — so replies arriving out of order demultiplex
// to the right caller.  Like the other extensions it is advisory and
// outside the CRC.
//
// The body of an error reply is { u32 error-code, string message } so the
// client can rethrow the server-side failure with full fidelity.
#pragma once

#include <cstdint>

#include "ohpx/common/bytes.hpp"
#include "ohpx/wire/buffer.hpp"

namespace ohpx::wire {

inline constexpr std::uint32_t kFrameMagic = 0x4f485058;  // "OHPX"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kTraceExtensionSize = 25;
inline constexpr std::size_t kDeadlineExtensionSize = 8;
inline constexpr std::size_t kCorrelationExtensionSize = 8;

enum class MessageType : std::uint8_t {
  request = 1,
  reply = 2,
  error_reply = 3,
  // Fire-and-forget request (Nexus remote-service-request semantics): the
  // server runs the handler and acknowledges with an empty reply; results
  // and application errors are not propagated to the caller.
  oneway = 4,
};

enum : std::uint16_t {
  kFlagGlueProcessed = 1u << 0,
  kFlagTraceContext = 1u << 1,
  kFlagDeadline = 1u << 2,
  kFlagCorrelation = 1u << 3,
};

enum : std::uint8_t {
  kTraceFlagSampled = 1u << 0,
};

struct MessageHeader {
  MessageType type = MessageType::request;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint64_t object_id = 0;
  std::uint32_t method_or_code = 0;

  // Trace-context extension (meaningful iff flags & kFlagTraceContext;
  // see the layout comment above).  Plain integers here so ohpx_wire does
  // not depend on ohpx_trace.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t trace_parent_span = 0;
  std::uint8_t trace_flags = 0;

  // Deadline extension (meaningful iff flags & kFlagDeadline): absolute
  // nanoseconds on the resilience clock, 0 = unbounded.
  std::int64_t deadline_ns = 0;

  // Correlation extension (meaningful iff flags & kFlagCorrelation):
  // transport-assigned per-call id, echoed in the reply for demux on a
  // multiplexed connection.
  std::uint64_t correlation_id = 0;

  bool has_trace() const noexcept {
    return (flags & kFlagTraceContext) != 0;
  }

  bool has_deadline() const noexcept {
    return (flags & kFlagDeadline) != 0;
  }

  bool has_correlation() const noexcept {
    return (flags & kFlagCorrelation) != 0;
  }

  friend bool operator==(const MessageHeader&, const MessageHeader&) = default;
};

/// A decoded reply: header plus the body copied out of the frame.  This
/// one struct is the reply vocabulary of every layer above the wire —
/// the protocol layer's ReplyMessage and the reactor's RawReply are both
/// aliases of it — so a reply decoded once on the reactor loop flows to
/// the stub's continuation without a re-decode or a per-layer repack.
struct ReplyEnvelope {
  MessageHeader header;
  Buffer payload;
  /// Encoded frame size (length prefix excluded), for byte accounting.
  std::size_t frame_size = 0;
};

/// The size of the frame encode_frame() would build: the fixed header,
/// the extensions `header` carries and `body_size` bytes of body.
std::size_t frame_size(const MessageHeader& header,
                       std::size_t body_size) noexcept;

/// Serializes header + body into one contiguous frame.
Buffer encode_frame(const MessageHeader& header, BytesView body);

/// As encode_frame, but writes into `out` (cleared first) so callers can
/// reuse a pooled buffer instead of allocating a fresh frame per call.
void encode_frame_into(Buffer& out, const MessageHeader& header,
                       BytesView body);

/// Parses and validates a frame header; returns the header and sets
/// `body` to the view of the remaining bytes.  Throws WireError on any
/// malformed input (bad magic/version/CRC, truncation).
MessageHeader decode_frame(BytesView frame, BytesView& body);

/// Convenience: builds the body of an error reply.
Buffer encode_error_body(std::uint32_t code, const std::string& message);

/// Parses an error-reply body.
void decode_error_body(BytesView body, std::uint32_t& code, std::string& message);

}  // namespace ohpx::wire
