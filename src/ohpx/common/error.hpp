// Error taxonomy for the Open HPC++ stack.
//
// Every failure that can cross a module boundary is expressed as a subclass
// of ohpx::Error carrying an ErrorCode, so callers can catch either the
// broad base or a precise category.  Remote failures are re-raised on the
// client as RemoteError preserving the server-side code and message.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ohpx {

enum class ErrorCode : std::uint32_t {
  ok = 0,
  // wire / framing
  wire_truncated = 100,
  wire_bad_magic = 101,
  wire_bad_version = 102,
  wire_bad_checksum = 103,
  wire_overflow = 104,
  wire_bad_value = 105,
  // transport
  transport_closed = 200,
  transport_connect_failed = 201,
  transport_io = 202,
  transport_unknown_endpoint = 203,
  // A bounded inflight window is full: the call was refused *before* any
  // bytes hit the wire, so retrying (after backoff) is always safe.
  backpressure = 204,
  // protocol layer
  protocol_unknown = 300,
  protocol_not_applicable = 301,
  protocol_no_match = 302,
  protocol_bad_proto_data = 303,
  // capabilities
  capability_denied = 400,
  capability_expired = 401,
  capability_exhausted = 402,
  capability_auth_failed = 403,
  capability_unknown = 404,
  capability_bad_payload = 405,
  // ORB / object layer
  object_not_found = 500,
  method_not_found = 501,
  stale_reference = 502,
  bad_object_ref = 503,
  context_not_found = 504,
  type_mismatch = 505,
  // A replicated-directory standby refused a mutation; the message carries
  // `primary=<host:port>` so the client can retarget and retry once.
  not_primary = 506,
  // runtime
  migration_failed = 600,
  not_migratable = 601,
  // application-raised errors forwarded over the wire
  remote_application_error = 700,
  // resilience
  deadline_exceeded = 800,
  internal = 999,
};

/// Human-readable name of an ErrorCode (stable, used on the wire in tests).
std::string_view to_string(ErrorCode code) noexcept;

/// Root of the Open HPC++ exception hierarchy.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& what_arg)
      : std::runtime_error(what_arg), code_(code) {}

  ErrorCode code() const noexcept { return code_; }

  /// Throws a new error of this one's dynamic type, with its own copy of
  /// the message.  Every subclass overrides it.  Future::get() raises
  /// stored errors through it (common/future.hpp).
  [[noreturn]] virtual void throw_copy() const { throw Error(code_, what()); }

 private:
  ErrorCode code_;
};

/// Marshalling / framing failures.
class WireError : public Error {
 public:
  using Error::Error;
  [[noreturn]] void throw_copy() const override {
    throw WireError(code(), what());
  }
};

/// Channel-level failures (sockets, queues, unknown endpoints).
class TransportError : public Error {
 public:
  using Error::Error;
  [[noreturn]] void throw_copy() const override {
    throw TransportError(code(), what());
  }
};

/// Protocol selection / dispatch failures.
class ProtocolError : public Error {
 public:
  using Error::Error;
  [[noreturn]] void throw_copy() const override {
    throw ProtocolError(code(), what());
  }
};

/// A capability refused to admit or to verify a request.
class CapabilityDenied : public Error {
 public:
  using Error::Error;
  [[noreturn]] void throw_copy() const override {
    throw CapabilityDenied(code(), what());
  }
};

/// Object registry failures (lookup, stale references after migration).
class ObjectError : public Error {
 public:
  using Error::Error;
  [[noreturn]] void throw_copy() const override {
    throw ObjectError(code(), what());
  }
};

/// An error raised on the server and propagated back to the caller.
class RemoteError : public Error {
 public:
  RemoteError(ErrorCode code, const std::string& what_arg)
      : Error(code, what_arg) {}
  [[noreturn]] void throw_copy() const override {
    throw RemoteError(code(), what());
  }
};

/// The call's deadline budget ran out before the pipeline finished.  Never
/// retried: the budget bounds the whole logical call, retries included.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what_arg)
      : Error(ErrorCode::deadline_exceeded, what_arg) {}
  DeadlineExceeded(ErrorCode code, const std::string& what_arg)
      : Error(code, what_arg) {}
  [[noreturn]] void throw_copy() const override {
    throw DeadlineExceeded(code(), what());
  }
};

/// Throws the exception subclass matching `code`'s category.
[[noreturn]] void throw_error(ErrorCode code, const std::string& message);

}  // namespace ohpx
