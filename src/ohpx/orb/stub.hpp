// Stub base class: the typed client-side face of a remote object.
//
// A user stub derives from ObjectStub, declares its type name, and wraps
// each remote method around call<Ret>(METHOD_ID, args...):
//
//   class CounterStub : public orb::ObjectStub {
//    public:
//     static constexpr std::string_view kTypeName = "Counter";
//     using ObjectStub::ObjectStub;
//     std::int64_t add(std::int64_t delta) {
//       return call<std::int64_t>(kAdd, delta);
//     }
//   };
//
// Stubs are cheap value types: copies share the CallCore (and therefore
// the client-side capability state — quotas keep counting across copies,
// exactly like handing the same capability around).
#pragma once

#include <utility>

#include "ohpx/common/future.hpp"
#include "ohpx/orb/invocation.hpp"
#include "ohpx/wire/buffer_pool.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::orb {

class ObjectStub {
 public:
  ObjectStub() = default;
  ObjectStub(Context& context, ObjectRef ref)
      : core_(std::make_shared<CallCore>(context, std::move(ref))) {}

  bool bound() const noexcept { return core_ != nullptr; }

  const ObjectRef& ref() const {
    ensure_bound();
    return core_->ref();
  }

  /// Protocol used by the most recent call (adaptivity observable).
  std::string last_protocol() const {
    ensure_bound();
    return core_->last_protocol();
  }

  /// Protocol that would be selected for a call right now.
  std::string probe_protocol() const {
    ensure_bound();
    return core_->probe_protocol();
  }

  /// Toggles the memoized protocol-selection fast path (on by default).
  void set_selection_cache(bool enabled) {
    ensure_bound();
    core_->set_selection_cache(enabled);
  }

  /// Per-GP trace sampling override (paper's steering contract applied to
  /// observability): always / ratio / off for calls through this stub,
  /// winning over the context override and the global sink mode.
  void set_trace_sampling(trace::Sampling mode, double ratio = 1.0) {
    ensure_bound();
    core_->set_trace_sampling(mode, ratio);
  }
  void clear_trace_sampling() {
    ensure_bound();
    core_->clear_trace_sampling();
  }

  /// Per-call deadline budget for calls through this stub (0 = unbounded):
  /// each call mints `budget` from now on the resilience clock, checks it
  /// at every pipeline stage and carries it to the server.
  void set_deadline_budget(Nanoseconds budget) {
    ensure_bound();
    core_->set_deadline_budget(budget);
  }

  /// Per-GP retry policy (innermost steering point: wins over the context
  /// override and the global policy).
  void set_retry_policy(const resilience::RetryPolicy& policy) {
    ensure_bound();
    core_->set_retry_policy(policy);
  }
  void clear_retry_policy() {
    ensure_bound();
    core_->clear_retry_policy();
  }

  /// Per-protocol-entry circuit breakers for this stub's OR table
  /// (failure_threshold == 0 — the default — disables them).
  void set_breaker_config(const resilience::BreakerConfig& config) {
    ensure_bound();
    core_->set_breaker_config(config);
  }

  /// Breaker state of one protocol-table entry (failover observable).
  resilience::CircuitBreaker::State breaker_state(std::size_t entry) const {
    ensure_bound();
    return core_->breaker_state(entry);
  }

  /// Typed remote call: marshals `args`, invokes, unmarshals Ret.
  template <typename Ret, typename... Args>
  Ret call(std::uint32_t method_id, const Args&... args) {
    return call_with_cost<Ret>(nullptr, method_id, args...);
  }

  /// As call(), but accrues marshalling/capability/wire costs to `ledger`
  /// (benchmark harness entry point).
  template <typename Ret, typename... Args>
  Ret call_with_cost(CostLedger* ledger, std::uint32_t method_id,
                     const Args&... args) {
    ensure_bound();
    // Pooled: the invocation layer releases the argument buffer back to
    // this thread's pool after the call, so a bulk caller reuses one warm
    // allocation instead of faulting in a fresh one per call.
    wire::Buffer payload = wire::BufferPool::local().acquire();
    {
      ScopedRealTime timer(ledger);  // disarmed when nobody is profiling
      wire::Encoder enc(payload);
      wire::serialize_all(enc, args...);
    }
    wire::Buffer reply =
        core_->invoke_raw(method_id, std::move(payload), ledger);
    // Returning the decoded reply buffer to the pool closes the recycle
    // loop opened in frame_roundtrip: steady-state calls reuse the same
    // handful of warm allocations.
    if constexpr (std::is_void_v<Ret>) {
      wire::BufferPool::local().release(std::move(reply));
      return;
    } else {
      ScopedRealTime timer(ledger);
      Ret result = wire::decode_value<Ret>(reply.view());
      wire::BufferPool::local().release(std::move(reply));
      return result;
    }
  }

  /// Fire-and-forget call: marshals args, delivers the request, returns
  /// as soon as the server acknowledges delivery.  Results and application
  /// errors are dropped server-side; infrastructure errors still throw.
  template <typename... Args>
  void call_oneway(std::uint32_t method_id, const Args&... args) {
    ensure_bound();
    wire::Buffer payload;
    {
      wire::Encoder enc(payload);
      wire::serialize_all(enc, args...);
    }
    core_->invoke_oneway(method_id, std::move(payload), nullptr);
  }

  /// Asynchronous remote call (HPC++ heritage: remote invocations that
  /// overlap with local work).  Arguments are marshalled eagerly on the
  /// calling thread and the call is *submitted* before this returns:
  /// over the epoll reactor for tcp (no thread is parked per call, so one
  /// caller can keep thousands in flight), inline for the in-process
  /// bearers, whose future has already settled.  The result, or the
  /// remote/transport exception, is delivered through the future; a
  /// refusal made before anything is sent (backpressure, a spent budget,
  /// a client-side capability denial) throws here.  The ambient deadline
  /// cancels the future with DeadlineExceeded.  No retry, on any bearer.
  template <typename Ret, typename... Args>
  ohpx::Future<Ret> call_async(std::uint32_t method_id, const Args&... args) {
    ensure_bound();
    // Pooled: invoke_async_reply() releases the argument buffer back to
    // this thread's pool once the frame is encoded, so a fan-in caller
    // recycles one warm buffer instead of allocating per call.
    wire::Buffer payload = wire::BufferPool::local().acquire();
    {
      wire::Encoder enc(payload);
      wire::serialize_all(enc, args...);
    }
    // Capturing core_ in the decode continuation pins the CallCore (and
    // its protocol objects) until the future settles.  The split
    // invoke_async_reply / finish_async_reply form folds the invocation
    // layer's settlement work (breaker feed, error decoding) into this one
    // continuation — one future stage per call, not two.
    CallCorePtr core = core_;
    CallCore::AsyncReplyTicket ticket;
    Future<proto::ReplyMessage> raw =
        core->invoke_async_reply(method_id, std::move(payload), ticket);
    return raw.map<Ret>([core, ticket](Future<proto::ReplyMessage> settled) {
      wire::Buffer reply =
          CallCore::finish_async_reply(std::move(settled), ticket);
      if constexpr (std::is_void_v<Ret>) {
        wire::BufferPool::local().release(std::move(reply));
      } else {
        Ret result = wire::decode_value<Ret>(reply.view());
        wire::BufferPool::local().release(std::move(reply));
        return result;
      }
    });
  }

 protected:
  CallCore& core() {
    ensure_bound();
    return *core_;
  }

 private:
  void ensure_bound() const {
    if (!core_) {
      throw ObjectError(ErrorCode::bad_object_ref, "stub is not bound");
    }
  }

  CallCorePtr core_;
};

}  // namespace ohpx::orb
