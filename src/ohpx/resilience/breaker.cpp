#include "ohpx/resilience/breaker.hpp"

namespace ohpx::resilience {

CircuitBreaker::Transition CircuitBreaker::allow(bool& admitted) noexcept {
  if (!config_.enabled()) {
    admitted = true;
    return Transition::none;
  }
  const auto state = static_cast<State>(state_.load(std::memory_order_acquire));
  if (state == State::closed) {
    admitted = true;
    return Transition::none;
  }
  if (state == State::open) {
    const std::int64_t opened_at = opened_at_ns_.load(std::memory_order_acquire);
    if (now_ns() - opened_at < config_.cooldown.count()) {
      admitted = false;
      return Transition::none;
    }
    // Cooldown elapsed: exactly one caller wins the probe slot.
    auto expected = static_cast<std::uint8_t>(State::open);
    if (state_.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(State::half_open),
            std::memory_order_acq_rel)) {
      probe_in_flight_.store(true, std::memory_order_release);
      admitted = true;
      return Transition::probing;
    }
    // Someone else transitioned first; fall through to half-open handling.
  }
  // half_open: only the thread that made the transition holds the probe.
  bool expected = false;
  admitted = probe_in_flight_.compare_exchange_strong(
      expected, true, std::memory_order_acq_rel);
  return admitted ? Transition::probing : Transition::none;
}

CircuitBreaker::Transition CircuitBreaker::on_success() noexcept {
  if (!config_.enabled()) return Transition::none;
  consecutive_failures_.store(0, std::memory_order_relaxed);
  const auto state = static_cast<State>(state_.load(std::memory_order_acquire));
  if (state == State::half_open) {
    state_.store(static_cast<std::uint8_t>(State::closed),
                 std::memory_order_release);
    probe_in_flight_.store(false, std::memory_order_release);
    return Transition::closed;
  }
  return Transition::none;
}

CircuitBreaker::Transition CircuitBreaker::on_failure() noexcept {
  if (!config_.enabled()) return Transition::none;
  const auto state = static_cast<State>(state_.load(std::memory_order_acquire));
  if (state == State::half_open) {
    // The probe failed: straight back to open, cooldown restarts.
    opened_at_ns_.store(now_ns(), std::memory_order_release);
    state_.store(static_cast<std::uint8_t>(State::open),
                 std::memory_order_release);
    probe_in_flight_.store(false, std::memory_order_release);
    return Transition::opened;
  }
  const int failures =
      consecutive_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (state == State::closed && failures >= config_.failure_threshold) {
    opened_at_ns_.store(now_ns(), std::memory_order_release);
    state_.store(static_cast<std::uint8_t>(State::open),
                 std::memory_order_release);
    return Transition::opened;
  }
  return Transition::none;
}

const char* to_string(CircuitBreaker::State state) noexcept {
  switch (state) {
    case CircuitBreaker::State::closed:
      return "closed";
    case CircuitBreaker::State::open:
      return "open";
    case CircuitBreaker::State::half_open:
      return "half_open";
  }
  return "unknown";
}

BreakerSet::BreakerSet(std::size_t entries, const BreakerConfig& config) {
  breakers_.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(config));
  }
}

BreakerRegistry& BreakerRegistry::global() {
  static BreakerRegistry registry;
  return registry;
}

void BreakerRegistry::add(const std::shared_ptr<BreakerSet>& set,
                          std::string label,
                          std::vector<std::string> entries) {
  sync::LockGuard lock(mutex_);
  for (Registration& registration : registrations_) {
    if (registration.label == label) {
      registration.set = set;
      registration.entries = std::move(entries);
      return;
    }
  }
  registrations_.push_back({set, std::move(label), std::move(entries)});
}

void BreakerRegistry::remove(const std::string& label) {
  sync::LockGuard lock(mutex_);
  for (auto it = registrations_.begin(); it != registrations_.end(); ++it) {
    if (it->label == label) {
      registrations_.erase(it);
      return;
    }
  }
}

std::vector<BreakerSetInfo> BreakerRegistry::snapshot() {
  sync::LockGuard lock(mutex_);
  std::vector<BreakerSetInfo> out;
  out.reserve(registrations_.size());
  for (auto it = registrations_.begin(); it != registrations_.end();) {
    if (std::shared_ptr<BreakerSet> live = it->set.lock()) {
      out.push_back({it->label, it->entries, std::move(live)});
      ++it;
    } else {
      it = registrations_.erase(it);  // owner died: prune in passing
    }
  }
  return out;
}

}  // namespace ohpx::resilience
