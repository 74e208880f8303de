// Per-protocol-entry circuit breakers.
//
// The paper's adaptivity contract — applicability is re-evaluated per
// request, and the first applicable OR-table ∩ pool entry wins — extends
// naturally to faults: a breaker that has *opened* makes its entry
// temporarily inapplicable, so selection fails over to the next entry
// with no special-case code, and a cooldown later the entry gets one
// half-open probe to earn its place back.
//
//   closed     normal service; consecutive failures are counted
//   open       failure_threshold consecutive failures seen; the entry is
//              skipped until `cooldown` elapses on the resilience clock
//   half_open  cooldown elapsed; exactly one probe call is admitted —
//              success closes the breaker, failure re-opens it
//
// The owning CallCore records each opening and closing as an anomaly
// (breaker_open / breaker_close, introspect/flight_recorder.hpp).  Nothing
// else observes a trip: failover across replicas (naming/failover.hpp)
// reacts to the call's transport error, not to the breaker.
//
// Thread-safe; allow()/on_success()/on_failure() are a few atomic ops.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::resilience {

struct BreakerConfig {
  /// Consecutive transport failures that trip the breaker.  0 disables
  /// breaking entirely (the default: plain selection, zero overhead).
  int failure_threshold = 0;

  /// How long a tripped entry stays inapplicable before one half-open
  /// probe is admitted (measured on the resilience clock).
  Nanoseconds cooldown{std::chrono::milliseconds(100)};

  bool enabled() const noexcept { return failure_threshold > 0; }

  friend bool operator==(const BreakerConfig&, const BreakerConfig&) = default;
};

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { closed = 0, open = 1, half_open = 2 };

  /// What an allow()/on_failure() call just did, so the owner can emit
  /// trace events and metrics without the breaker knowing their names.
  enum class Transition : std::uint8_t { none, opened, probing, closed };

  explicit CircuitBreaker(const BreakerConfig& config) noexcept
      : config_(config) {}

  /// May this entry serve a call right now?  Open entries answer no until
  /// the cooldown expires, then admit exactly one probe (half-open).
  /// Returns the transition taken (probing when this call became the
  /// probe).
  Transition allow(bool& admitted) noexcept;

  /// The attempt reached the server and came back (any reply, even an
  /// error reply, proves the channel works).  Closes a half-open breaker.
  Transition on_success() noexcept;

  /// The attempt died in the transport.  Trips the breaker at the
  /// threshold; re-opens a half-open breaker immediately.
  Transition on_failure() noexcept;

  State state() const noexcept {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  const BreakerConfig& config() const noexcept { return config_; }

 private:
  BreakerConfig config_;
  std::atomic<std::uint8_t> state_{static_cast<std::uint8_t>(State::closed)};
  std::atomic<int> consecutive_failures_{0};
  std::atomic<std::int64_t> opened_at_ns_{0};
  std::atomic<bool> probe_in_flight_{false};
};

const char* to_string(CircuitBreaker::State state) noexcept;

/// One breaker per protocol-table entry of a CallCore, parallel to its
/// candidate vector.  Disabled configs produce no breakers at all, so the
/// common path stays a null check.
class BreakerSet {
 public:
  BreakerSet(std::size_t entries, const BreakerConfig& config);

  CircuitBreaker& at(std::size_t index) noexcept { return *breakers_[index]; }
  const CircuitBreaker& at(std::size_t index) const noexcept {
    return *breakers_[index];
  }
  std::size_t size() const noexcept { return breakers_.size(); }

 private:
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
};

/// One registered breaker set, resolved live at snapshot time.
struct BreakerSetInfo {
  std::string label;                  // owner identity, e.g. "obj/7"
  std::vector<std::string> entries;   // protocol name per breaker entry
  std::shared_ptr<BreakerSet> set;    // pinned for the snapshot's lifetime
};

/// Process-wide directory of live breaker sets, so the introspection plane
/// can dump every breaker's state without the owners knowing about it.
/// Registration is weak: a CallCore that drops its set (or dies) simply
/// vanishes from the next snapshot — no unregister call to forget.
class BreakerRegistry {
 public:
  static BreakerRegistry& global();

  /// Registers a set under `label` with one name per breaker entry
  /// (parallel to BreakerSet indices).  Re-registering the same label
  /// replaces the previous registration (a reconfigured CallCore swaps
  /// its set in place).
  void add(const std::shared_ptr<BreakerSet>& set, std::string label,
           std::vector<std::string> entries);

  /// Removes the registration under `label` (breakers disabled).
  void remove(const std::string& label);

  /// Live sets only, registration order; expired entries are pruned.
  std::vector<BreakerSetInfo> snapshot();

 private:
  struct Registration {
    std::weak_ptr<BreakerSet> set;
    std::string label;
    std::vector<std::string> entries;
  };

  mutable sync::Mutex mutex_{"resilience.breaker_registry"};
  std::vector<Registration> registrations_ OHPX_GUARDED_BY(mutex_);
};

}  // namespace ohpx::resilience
