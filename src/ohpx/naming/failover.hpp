// Replica failover: a stub wrapper that survives the death of the server
// it is bound to.
//
// A ReplicaPointer<Stub> binds `name` through the directory and forwards
// calls to whichever replica it is currently attached to.  A
// TransportError thrown by a call (connection refused, reset, channel
// died mid-exchange) triggers a rebind — except backpressure, which means
// the channel is saturated, not broken.  Only this client's own channel
// raises one: a servant's downstream transport fault arrives as a
// RemoteError, from a live server.  A rebind reports the dead replica to
// the directory (report_dead — failover must not wait out the lease),
// invalidates the NameClient cache, re-resolves, retries the call against
// each remaining replica in directory order, and records one `failover`
// anomaly.  Directory order is insertion order, so every client fails over
// to the same survivor — deterministic, which the multi-process kill -9
// test relies on.
//
// Calls routed through call() keep the acknowledged-call invariant from
// the resilience layer: attempts() == successful calls + failovers, so a
// test can prove no acknowledged call was lost across a kill.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "ohpx/common/error.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/naming/name_client.hpp"

namespace ohpx::naming {

template <typename Stub>
class ReplicaPointer {
 public:
  /// Binds lazily: the first call (or current_ref()) resolves `name`.
  ReplicaPointer(orb::Context& context, NameClient& names, std::string name)
      : context_(context), names_(names), name_(std::move(name)) {}

  ReplicaPointer(const ReplicaPointer&) = delete;
  ReplicaPointer& operator=(const ReplicaPointer&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Rebinds performed since construction (kill -9 observability).
  std::uint64_t failovers() const noexcept {
    return failovers_.load(std::memory_order_relaxed);
  }

  /// Stub invocations attempted through call(), failover retries
  /// included — the client half of the attempts == calls + retries
  /// invariant.
  std::uint64_t attempts() const noexcept {
    return attempts_.load(std::memory_order_relaxed);
  }

  /// The reference currently bound (resolving on first use).
  const orb::ObjectRef& current_ref() {
    ensure_bound();
    return stub_.ref();
  }

  /// The bound stub, for calls that manage failover themselves.
  Stub& stub() {
    ensure_bound();
    return stub_;
  }

  /// Invokes `fn(stub)` with failover: a transport loss reports the
  /// replica dead, re-resolves the name and retries against each
  /// remaining replica.  Exhausting the replica set rethrows the last
  /// transport error; other errors (remote errors, deadline,
  /// backpressure) pass through untouched — they came from a live server
  /// or a saturated channel.
  template <typename Fn>
  auto call(Fn&& fn) {
    ensure_bound();
    for (;;) {
      try {
        attempts_.fetch_add(1, std::memory_order_relaxed);
        return fn(stub_);
      } catch (const TransportError& e) {
        if (e.code() == ErrorCode::backpressure) throw;
        // Copy, not reference: failover rebinds stub_ underneath.
        const orb::ObjectRef dead = stub_.ref();
        if (!failover_to_next(dead, e.code())) throw;
      }
    }
  }

 private:
  void ensure_bound() {
    if (!stub_.bound()) stub_ = Stub(context_, names_.resolve(name_));
  }

  /// Reports `dead`, re-resolves and binds the first replica that is not
  /// `dead` — matched with same_replica(), because object ids collide
  /// across processes.  False when no other replica is registered.
  bool failover_to_next(const orb::ObjectRef& dead, ErrorCode cause) {
    try {
      names_.report_dead(name_, dead);
    } catch (const Error&) {
      // The directory itself may be unreachable; failover proceeds on
      // whatever resolve_all can still tell us below.
    }
    names_.invalidate(name_);
    std::pair<std::uint64_t, std::vector<orb::ObjectRef>> live;
    try {
      live = names_.resolve_all(name_);
    } catch (const Error&) {
      return false;
    }
    for (const orb::ObjectRef& ref : live.second) {
      if (same_replica(ref, dead)) continue;
      stub_ = Stub(context_, ref);
      failovers_.fetch_add(1, std::memory_order_relaxed);
      introspect::anomaly(introspect::EventKind::failover, cause, name_);
      return true;
    }
    return false;
  }

  orb::Context& context_;
  NameClient& names_;
  std::string name_;
  Stub stub_;
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> attempts_{0};
};

}  // namespace ohpx::naming
