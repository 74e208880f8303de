// Client-side invocation core shared by all stubs bound to one OR.
//
// Per call (paper §3.2): resolve the object's current address through the
// location service (falling back to the OR's home address), compute the
// placement, select the first applicable pool-allowed protocol from the
// OR's table, and fire.  Every failed sync attempt, an error reply
// included, goes through one retry decision: a transient failure (a
// channel fault, a damaged exchange, a stale reference after a migration
// race) re-selects and goes again under the retry policy, recorded as one
// `retry` anomaly (introspect/flight_recorder.hpp); refusals and the
// deadline end the call.  Error replies are re-raised as typed
// exceptions, except that a transport-coded reply is a RemoteError and
// never retries: the servant's own downstream call failed, not this
// client's channel.
//
// Fast path: the paper re-evaluates selection per request, but between two
// calls nothing that feeds the decision usually changed.  The selection
// inputs are exactly (object address, pool contents), so CallCore memoizes
// the chosen protocol keyed on (location epoch, pool generation) and
// revalidates both probes per call — a republish (migration, enable_tcp)
// or a pool edit invalidates the cache on the very next call, preserving
// the adaptivity contract while skipping the re-resolve, the table scan,
// the describe() string build and the per-call metric-name lookups.
// References carrying a protocol whose applicability depends on state
// outside that key (Protocol::applicability_is_stable() == false, e.g.
// relay) are never cached.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/future.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/context.hpp"
#include "ohpx/orb/object_ref.hpp"
#include "ohpx/protocol/protocol.hpp"
#include "ohpx/resilience/breaker.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/resilience/retry.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/trace/trace.hpp"

namespace ohpx::orb {

class CallCore {
 public:
  CallCore(Context& context, ObjectRef ref);

  /// Marshals nothing — the caller provides the encoded argument payload
  /// (by value: move it in to avoid a copy; the buffer is consumed).
  /// Returns the reply payload.  Costs (marshalling, capability work, wire
  /// time) accrue to `ledger` when non-null.
  wire::Buffer invoke_raw(std::uint32_t method_id, wire::Buffer args,
                          CostLedger* ledger);

  /// Fire-and-forget variant: the server runs the method but returns only
  /// an empty delivery ack; results and application errors are dropped on
  /// the server (infrastructure errors — no such object, capability
  /// denied — still surface here).
  void invoke_oneway(std::uint32_t method_id, wire::Buffer args,
                     CostLedger* ledger);

  /// Per-call bookkeeping handed out by invoke_async_reply() and consumed
  /// by finish_async_reply(): which breaker entry the settlement feeds.
  /// Copyable by design: continuations capture it by value.  Its size sets
  /// the stub's per-call continuation allocation, and fan-in throughput
  /// has moved twofold with that size (allocator size classes; ROADMAP
  /// item 2): change it only with a fan-in measurement.
  struct AsyncReplyTicket {
    std::shared_ptr<resilience::BreakerSet> breakers;
    std::size_t entry_index = 0;
    /// Protocol::name() of the selected entry (a string literal, so the
    /// view outlives the CallCore) for the breaker feed's records.
    std::string_view protocol;
    /// Completion latency (submit to settlement), recorded in
    /// finish_async_reply — the async sibling of kRmiLatency.
    metrics::LatencyHistogram* latency = nullptr;
    /// Started at submit (invoke_async_reply resets it on entry).
    Stopwatch watch;
    /// Request id the reply must echo: proto::check_reply, applied at
    /// settlement as the sync pipeline applies it per exchange.
    std::uint64_t expect_request_id = 0;
    /// Holds the ticket at 80 bytes.  The two deadline-counter handles
    /// that sat here moved into the anomaly table; without them the
    /// 16-byte-smaller ticket read 133k-141k calls/s on `bench_fanin
    /// --smoke` fanin/reactor in 3 of 10 runs on a 4-vCPU x86-64 VM,
    /// where the 80-byte ticket read 234k-282k in all 10 interleaved runs.
    std::byte reserved[16] = {};
  };
  static_assert(sizeof(void*) != 8 || sizeof(AsyncReplyTicket) == 80,
                "AsyncReplyTicket size moves fan-in throughput: measure");

  /// Asynchronous invocation, submission half: selection, header build and
  /// the selected protocol's invoke_async() run on the calling thread, for
  /// every table entry; the reply future settles on the reactor loop for
  /// tcp, before this returns for the in-process bearers.  Fills `ticket`;
  /// the caller folds one finish_async_reply() call into its own decode
  /// continuation (stubs do), so fan-in pays one future stage per call,
  /// not two.  No retry, on any bearer: refusals made before anything is
  /// sent (backpressure, a spent budget, a client-side capability denial)
  /// throw here, later faults settle the future, and the caller owns
  /// re-submission.  The ambient deadline cancels pending futures; the
  /// ambient trace context is stamped per call.  This CallCore must
  /// outlive settlement — callers holding it through CallCorePtr (stubs
  /// do) get that for free by capturing the pointer in the continuation.
  Future<proto::ReplyMessage> invoke_async_reply(std::uint32_t method_id,
                                                 wire::Buffer args,
                                                 AsyncReplyTicket& ticket);

  /// Settlement half: breaker bookkeeping, error-reply decoding (counted,
  /// recorded and typed as the sync path does), payload extraction.  Call
  /// exactly once, with the settled reply future.
  static wire::Buffer finish_async_reply(Future<proto::ReplyMessage> settled,
                                         const AsyncReplyTicket& ticket);

  const ObjectRef& ref() const noexcept { return ref_; }
  Context& context() noexcept { return context_; }

  /// describe() of the protocol used by the most recent call — the
  /// observable for adaptivity tests and the Figure 4 experiment.
  std::string last_protocol() const;

  /// Resolves the current call target (public for diagnostics).
  proto::CallTarget resolve_target() const;

  /// The protocol that *would* be selected right now, without calling.
  /// Always performs a full re-evaluation (never consults the cache).
  std::string probe_protocol() const;

  /// Toggles the memoized selection fast path (on by default).  Off means
  /// every call re-resolves and re-scans exactly like the paper's literal
  /// rule — the benchmark baseline.
  void set_selection_cache(bool enabled) noexcept {
    cache_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool selection_cache_enabled() const noexcept {
    return cache_enabled_.load(std::memory_order_relaxed);
  }

  /// Per-GP trace sampling override (innermost steering point: wins over
  /// the context override and the global sink mode).
  void set_trace_sampling(trace::Sampling mode, double ratio = 1.0) noexcept {
    trace_sampling_.set(mode, ratio);
  }
  void clear_trace_sampling() noexcept { trace_sampling_.clear(); }

  /// Per-call deadline budget: every call through this core mints an
  /// absolute deadline `budget` from now on the resilience clock,
  /// tightened against any ambient deadline, checked at every pipeline
  /// stage and carried over the wire.  Zero (the default) = unbounded.
  void set_deadline_budget(Nanoseconds budget) noexcept {
    deadline_budget_ns_.store(budget.count(), std::memory_order_relaxed);
  }
  Nanoseconds deadline_budget() const noexcept {
    return Nanoseconds(deadline_budget_ns_.load(std::memory_order_relaxed));
  }

  /// Per-GP retry policy override (innermost steering point: wins over the
  /// context override and the global policy).
  void set_retry_policy(const resilience::RetryPolicy& policy) {
    retry_policy_.set(policy);
  }
  void clear_retry_policy() { retry_policy_.clear(); }

  /// Installs per-protocol-entry circuit breakers (one per OR-table entry,
  /// fresh state).  A config with failure_threshold == 0 removes them —
  /// the default, costing the fast path one relaxed load.
  void set_breaker_config(const resilience::BreakerConfig& config);

  /// Breaker state of one protocol-table entry (closed when breakers are
  /// not enabled) — the observable for failover tests and metrics dumps.
  resilience::CircuitBreaker::State breaker_state(std::size_t entry) const;

 private:
  /// One memoized selection: valid while the location epoch and pool
  /// generation both still match.  `protocol` points into `protocols_`
  /// (owned by this CallCore, so the pointer is stable).  Entries are
  /// immutable once published (shared_ptr-to-const snapshots), so a hit
  /// copies one pointer instead of a CallTarget full of address strings.
  /// `location_version` is the service-wide edit counter at fill time: a
  /// single atomic load revalidates the entry while the location map is
  /// quiet, and only when *some* object republished do we pay the precise
  /// per-object epoch_of() probe.
  struct CachedSelection {
    proto::Protocol* protocol = nullptr;
    proto::CallTarget target;
    std::size_t entry_index = 0;  // position in protocols_, keys breakers
    std::uint64_t location_epoch = 0;
    std::uint64_t location_version = 0;
    std::uint64_t pool_generation = 0;
    std::string described;
    metrics::MetricsRegistry::Counter* calls_by_protocol = nullptr;
  };

  /// One call's resolved selection, cached or fresh.  On a hit `entry`
  /// pins the immutable snapshot, so target() stays valid for as long as
  /// the Selection lives; on a miss the freshly resolved target is owned
  /// by `resolved`.
  struct Selection {
    proto::Protocol* protocol = nullptr;
    proto::CallTarget resolved;                    // filled on misses only
    std::shared_ptr<const CachedSelection> entry;  // non-null on hits
    metrics::MetricsRegistry::Counter* proto_counter = nullptr;
    std::size_t entry_index = 0;
    bool from_cache = false;

    const proto::CallTarget& target() const noexcept {
      return entry ? entry->target : resolved;
    }
  };

  /// The memoized protocol selection shared by the sync and async paths:
  /// probe the invalidation signals, revalidate or drop the cached entry,
  /// gate it through its breaker, and fall back to a full re-selection
  /// (filling the cache) on a miss.  Bumps cache_hits_/cache_misses_ and
  /// last_protocol_.
  Selection select_for_call(
      bool use_cache,
      const std::shared_ptr<resilience::BreakerSet>& breakers);

  wire::Buffer invoke_internal(std::uint32_t method_id, wire::Buffer args,
                               CostLedger* ledger, bool oneway);

  /// The one request header builder, sync and async: a fresh request id,
  /// the ambient trace context and the call's deadline stamped on.
  wire::MessageHeader request_header(wire::MessageType type,
                                     std::uint32_t method_id,
                                     std::int64_t deadline) const;

  /// Drops the memoized selection (every failed sync attempt does).
  void drop_cache();

  /// Fast-path view of the resolved retry policy: one global-revision probe
  /// revalidates a memoized resolution, so the default-policy hot path
  /// never touches a mutex.  retry_policy_now() returns the full policy
  /// (failure path only).
  int max_attempts_now();
  resilience::RetryPolicy retry_policy_now();

  /// Breaker set snapshot (nullptr when breakers are off — the default).
  std::shared_ptr<resilience::BreakerSet> breaker_set() const;

  /// The one breaker feed, shared by the sync pipeline, the async submit
  /// refusal and the async settlement.  `outcome` is ErrorCode::ok when a
  /// reply (even an error reply) arrived, else the transport fault.
  /// Backpressure never reaches the breaker (the reactor recorded it); an
  /// opening or closing transition is a breaker_open / breaker_close
  /// anomaly.  `breakers` may be null (breakers off).
  static void feed_breaker(resilience::BreakerSet* breakers,
                           std::size_t entry, std::string_view protocol,
                           ErrorCode outcome);

  /// Waits out the policy backoff before a retry (no-op under the default
  /// zero-backoff policy); the schedule is created lazily on first use.
  void wait_backoff(std::optional<resilience::BackoffSchedule>& backoff,
                    CostLedger& cost);

  Context& context_;
  ObjectRef ref_;
  std::vector<proto::ProtocolPtr> protocols_;  // built once, reused (keeps
                                               // client capability state)
  bool cacheable_ = true;  // all table entries have stable applicability
  std::atomic<bool> cache_enabled_{true};
  trace::SamplingOverride trace_sampling_;

  // Resilience state.  The deadline budget is one relaxed load per call;
  // the resolved retry policy is memoized against the global revision
  // counter (two relaxed loads per call while policies are quiet); the
  // breaker set pointer is copied under the lock only when enabled.
  std::atomic<std::int64_t> deadline_budget_ns_{0};
  resilience::RetryOverride retry_policy_;
  std::atomic<std::uint64_t> retry_revision_seen_{0};
  std::atomic<int> cached_max_attempts_{3};
  std::atomic<bool> breakers_enabled_{false};

  // Interned hot-path metrics handles (stable for process lifetime).
  metrics::MetricsRegistry::Counter* calls_total_;
  metrics::MetricsRegistry::Counter* cache_hits_;
  metrics::MetricsRegistry::Counter* cache_misses_;
  metrics::MetricsRegistry::Counter* cache_invalidate_;
  metrics::LatencyHistogram* latency_;
  metrics::LatencyHistogram* async_latency_;

  mutable sync::Mutex mutex_{"orb.call_core"};
  std::shared_ptr<const CachedSelection> cache_ OHPX_GUARDED_BY(mutex_);
  std::string last_protocol_ OHPX_GUARDED_BY(mutex_);
  resilience::RetryPolicy cached_policy_ OHPX_GUARDED_BY(mutex_);
  std::shared_ptr<resilience::BreakerSet> breakers_ OHPX_GUARDED_BY(mutex_);
};

using CallCorePtr = std::shared_ptr<CallCore>;

}  // namespace ohpx::orb
