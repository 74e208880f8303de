// Policy-driven retry with deterministic exponential backoff.
//
// A RetryPolicy bounds how many times one logical call may be attempted
// and how long to wait between attempts (exponential backoff with seeded
// jitter, so the full backoff sequence is reproducible from the policy
// seed).  A policy has one scope: the global pointer that makes the call
// (CallCore::set_retry_policy), next to its breakers and deadline budget.
//
// What is worth retrying is a fixed classification (is_retryable): faults
// of the channel and of migration races are transient; refusals of
// authority (auth, quota, lease) are answers, not accidents, and must
// never be retried.
#pragma once

#include <cstdint>

#include "ohpx/common/clock.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/common/rng.hpp"

namespace ohpx::resilience {

struct RetryPolicy {
  /// Total attempts for one logical call (first try + retries).  1 = no
  /// retries at all.
  int max_attempts = 3;

  /// Delay before the first retry; 0 = retry immediately (the default, so
  /// the in-process fast path never waits).
  Nanoseconds initial_backoff{0};

  /// Backoff growth per retry (attempt n waits initial * multiplier^n,
  /// capped at max_backoff).
  double backoff_multiplier = 2.0;

  Nanoseconds max_backoff{std::chrono::milliseconds(100)};

  /// Jitter as a fraction of the computed delay: the actual wait is
  /// delay * (1 + jitter * (2u - 1)) for a seeded uniform u in [0, 1).
  /// 0 = no jitter.
  double jitter = 0.0;

  /// Seed for the jitter stream — the whole backoff sequence is a pure
  /// function of (policy, seed).
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Transient failures worth another attempt: channel faults (the endpoint
/// may rebind, the breaker may fail us over), frame/payload corruption
/// (checksums caught it; a re-send is clean), and migration races.
/// Everything that expresses a *decision* — capability refusals, missing
/// objects, expired deadlines — is final.
bool is_retryable(ErrorCode code) noexcept;

/// Deterministic backoff sequence for one logical call: next() yields the
/// delay before retry 1, 2, ... per the policy, jittered from the policy
/// seed.
class BackoffSchedule {
 public:
  explicit BackoffSchedule(const RetryPolicy& policy) noexcept;

  Nanoseconds next() noexcept;

 private:
  RetryPolicy policy_;
  Xoshiro256 rng_;
  double current_ns_;
};

}  // namespace ohpx::resilience
