#include "ohpx/resilience/retry.hpp"

#include <algorithm>

namespace ohpx::resilience {

// Exhaustive on purpose — no default — so adding an ErrorCode without
// deciding its retry class is a compile warning here and an ohpx-lint
// error (error-consistency rule in tools/ohpx_lint.py).
bool is_retryable(ErrorCode code) noexcept {
  switch (code) {
    // Channel faults: the endpoint may rebind, a breaker may fail over.
    case ErrorCode::transport_closed:
    case ErrorCode::transport_connect_failed:
    case ErrorCode::transport_io:
    case ErrorCode::transport_unknown_endpoint:
    // Window-full refusal: nothing was sent, so a backed-off re-attempt is
    // always safe (and the natural reaction to transient overload).
    case ErrorCode::backpressure:
    // Corruption caught by framing or by a checksum capability: the next
    // send is a fresh frame.
    case ErrorCode::wire_truncated:
    case ErrorCode::wire_bad_checksum:
    case ErrorCode::capability_bad_payload:
    // Migration race: the republish already happened, re-resolve and go.
    case ErrorCode::stale_reference:
      return true;
    // Success needs no retry.
    case ErrorCode::ok:
    // Malformed frames that a re-send would reproduce byte-for-byte.
    case ErrorCode::wire_bad_magic:
    case ErrorCode::wire_bad_version:
    case ErrorCode::wire_overflow:
    case ErrorCode::wire_bad_value:
    // Protocol selection verdicts: deterministic given the same ref.
    case ErrorCode::protocol_unknown:
    case ErrorCode::protocol_not_applicable:
    case ErrorCode::protocol_no_match:
    case ErrorCode::protocol_bad_proto_data:
    // Refusals of authority are answers, not accidents.
    case ErrorCode::capability_denied:
    case ErrorCode::capability_expired:
    case ErrorCode::capability_exhausted:
    case ErrorCode::capability_auth_failed:
    case ErrorCode::capability_unknown:
    // Object-layer misses other than the migration race above.
    case ErrorCode::object_not_found:
    case ErrorCode::method_not_found:
    case ErrorCode::bad_object_ref:
    case ErrorCode::context_not_found:
    case ErrorCode::type_mismatch:
    // A blind re-send would hit the same standby; NameClient follows the
    // redirect in the message explicitly instead.
    case ErrorCode::not_primary:
    // Runtime decisions and application-raised errors are final.
    case ErrorCode::migration_failed:
    case ErrorCode::not_migratable:
    case ErrorCode::remote_application_error:
    // The budget is spent; retrying would only overdraw it.
    case ErrorCode::deadline_exceeded:
    case ErrorCode::internal:
      return false;
  }
  return false;  // unreachable for in-range codes
}

BackoffSchedule::BackoffSchedule(const RetryPolicy& policy) noexcept
    : policy_(policy),
      rng_(policy.seed),
      current_ns_(static_cast<double>(policy.initial_backoff.count())) {}

Nanoseconds BackoffSchedule::next() noexcept {
  const double capped =
      std::min(current_ns_, static_cast<double>(policy_.max_backoff.count()));
  double jittered = capped;
  if (policy_.jitter > 0.0 && capped > 0.0) {
    const double u = rng_.next_double();
    jittered = capped * (1.0 + policy_.jitter * (2.0 * u - 1.0));
  }
  current_ns_ = current_ns_ * policy_.backoff_multiplier;
  return Nanoseconds(static_cast<std::int64_t>(std::max(jittered, 0.0)));
}

}  // namespace ohpx::resilience
