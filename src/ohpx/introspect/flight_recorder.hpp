// Anomalies: the ORB's record of every notable event — error replies,
// retries, breaker trips, deadline cancellations, backpressure refusals,
// reactor stalls, dropped connections and naming failovers — in one table
// and through one call.
//
// introspect::anomaly(kind, code, detail) shows each event in three sinks,
// exactly once each:
//   - the counters its table row names (metrics registry, so the exporter,
//     ohpx-top and the benchmark see it);
//   - one flight-recorder entry, with the trace context that was ambient
//     when it happened;
//   - one trace event under the row's name, annotated with the error
//     code's name (or with `detail` when the event carries no code).
// Which sinks show a kind, and under which names, is decided here and
// nowhere else: ohpx-lint's anomaly-sites rule rejects a recorder call, a
// registry call on a table counter or a table event emitted anywhere in
// src/ outside src/ohpx/introspect/.
//
// The first construction of the recorder interns every table counter, so
// each family is exported at zero before its first event.  Producers that
// record from threads they own (the reactor's loop) construct the recorder
// first: the metrics registry then outlives the recorder, and the
// recorder outlives them.
//
// The recorder answers the first question of every incident — "what was
// the ORB doing right before it went wrong?" — without requiring tracing
// or verbose logging to have been enabled in advance.  Anomalies sit only
// on cold paths (an error was already being thrown, a breaker already
// tripped), so a short critical section per record is acceptable; the hot
// call path never touches the recorder.
//
// The ring is dumped three ways:
//   - on demand: dump() / the IntrospectServant's flightrecorder method /
//     the HTTP exporter's /flightrecorder endpoint;
//   - when the reactor's stall watchdog fires (transport/reactor.cpp logs
//     the dump on the first stall);
//   - on fatal signal, best-effort, when install_fatal_signal_dump() was
//     called: the handler renders the ring to stderr without locking
//     (async-signal-unsafe by the letter of the law, but the process is
//     dying anyway — the alternative is losing the evidence).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::introspect {

/// The anomaly table's key.  Kinds split wherever their counters differ.
enum class EventKind : std::uint8_t {
  error = 0,               // an error reply ended a call
  retry = 1,               // the invocation layer re-attempts a call
  breaker_open = 2,        // a circuit breaker tripped open
  breaker_close = 3,       // a half-open breaker closed after a probe
  deadline = 4,            // a budget ran out (sync, or before a submit)
  backpressure = 5,        // the reactor refused a call: window full
  stall = 6,               // the reactor's loop exceeded its lag threshold
  async_deadline = 7,      // an async future settled by its deadline
  deadline_sweep = 8,      // the reactor cancelled calls past deadline
  connection_dropped = 9,  // a reactor connection failed
  failover = 10,           // a ReplicaPointer rebound to another replica
  endpoint_failover = 11,  // a NameClient walked to its next endpoint
  redirect = 12,           // a NameClient followed a not_primary redirect
  promotion = 13,          // a standby directory took the primary seat
};

/// One row: how every sink shows one kind.
struct AnomalyRow {
  EventKind kind;
  const char* name;   // to_string(kind): the recorder's kind column
  const char* event;  // trace event name (registered in span_names.hpp)
  std::array<const char*, 2> counters;  // metric names bumped (or null)
};

/// The table, indexed by EventKind.  A backpressure refusal and an async
/// deadline each bump two counters: one event, recorded once, at the layer
/// that decides it.
inline constexpr AnomalyRow kAnomalyTable[] = {
    {EventKind::error, "error", "rmi.error_reply", {}},
    {EventKind::retry, "retry", "retry", {metrics::names::kRmiRetries}},
    {EventKind::breaker_open, "breaker_open", "breaker.open",
     {metrics::names::kRmiBreakerOpened}},
    {EventKind::breaker_close, "breaker_close", "breaker.close",
     {metrics::names::kRmiBreakerClosed}},
    {EventKind::deadline, "deadline", "rmi.deadline",
     {metrics::names::kRmiDeadlineExceeded}},
    {EventKind::backpressure, "backpressure", "reactor.backpressure",
     {metrics::names::kReactorBackpressure,
      metrics::names::kRmiBackpressure}},
    {EventKind::stall, "stall", "reactor.stall",
     {metrics::names::kRmiReactorStall}},
    {EventKind::async_deadline, "async_deadline", "rmi.async.deadline",
     {metrics::names::kRmiDeadlineExceeded,
      metrics::names::kRmiAsyncDeadlineCancelled}},
    {EventKind::deadline_sweep, "deadline_sweep", "reactor.deadline_sweep",
     {metrics::names::kReactorDeadlineCancelled}},
    {EventKind::connection_dropped, "connection_dropped",
     "reactor.conn_dropped", {}},
    {EventKind::failover, "failover", "naming.failover",
     {metrics::names::kNamingFailovers}},
    {EventKind::endpoint_failover, "endpoint_failover",
     "naming.next_endpoint", {metrics::names::kNamingEndpointFailovers}},
    {EventKind::redirect, "redirect", "naming.redirect",
     {metrics::names::kNamingRedirectFollows}},
    {EventKind::promotion, "promotion", "naming.promotion",
     {metrics::names::kNamingReplPromotions}},
};

inline constexpr std::size_t kEventKinds = std::size(kAnomalyTable);

static_assert([] {
  for (std::size_t i = 0; i < kEventKinds; ++i) {
    if (static_cast<std::size_t>(kAnomalyTable[i].kind) != i) return false;
  }
  return true;
}(), "kAnomalyTable rows must be in EventKind order");

const char* to_string(EventKind kind) noexcept;

/// Records one anomaly in every sink its row names: each counter moves by
/// `count` (the reactor's deadline sweep passes the calls it cancelled),
/// then one recorder entry and one trace event are written.
void anomaly(EventKind kind, ErrorCode code, std::string_view detail,
             std::uint64_t count = 1);

class FlightRecorder {
 public:
  /// Ring depth: the last kCapacity events are retained, oldest evicted.
  static constexpr std::size_t kCapacity = 256;

  /// Longest detail string retained per record (fixed storage so the
  /// fatal-signal renderer never allocates).
  static constexpr std::size_t kDetailCapacity = 96;

  struct Record {
    std::int64_t wall_ns = 0;  // system clock at record time
    std::uint64_t seq = 0;     // monotonically increasing, never reused
    std::uint64_t trace_hi = 0, trace_lo = 0;  // ambient trace (0 = none)
    std::uint16_t code = 0;    // raw ErrorCode (0 = not error-coded)
    EventKind kind = EventKind::error;
    char detail[kDetailCapacity] = {0};  // NUL-terminated, truncated
  };

  /// Process-wide recorder every anomaly feeds.  Its first construction
  /// interns the table's counters.
  static FlightRecorder& global();

  /// Appends one entry; captures the calling thread's ambient trace
  /// context.  `detail` is truncated to kDetailCapacity - 1 bytes.  Only
  /// anomaly() calls it in src/.
  void record(EventKind kind, ErrorCode code, std::string_view detail);

  /// The retained records, oldest first.
  std::vector<Record> snapshot() const;

  /// Human-readable dump of snapshot(), one line per record.
  std::string dump() const;

  /// Events recorded since process start (monotonic; exceeds size() once
  /// the ring has wrapped).
  std::uint64_t total_recorded() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  std::size_t size() const;
  std::size_t capacity() const noexcept { return kCapacity; }

  /// Drops all retained records (sequence numbers keep counting).
  void clear();

  /// Installs SIGSEGV/SIGABRT/SIGBUS handlers that render the ring to
  /// stderr before re-raising with the default disposition.  Idempotent.
  /// Opt-in: long-lived daemons and tools call it, libraries never do.
  static void install_fatal_signal_dump();

 private:
  FlightRecorder();

  friend void anomaly(EventKind, ErrorCode, std::string_view, std::uint64_t);
  friend void fatal_signal_render();  // lock-free stderr render (signal path)

  /// The table's counters, interned at construction, by kind.
  std::array<std::array<metrics::MetricsRegistry::Counter*, 2>, kEventKinds>
      counters_{};

  mutable sync::Mutex mutex_{"introspect.flight"};
  std::array<Record, kCapacity> ring_ OHPX_GUARDED_BY(mutex_){};
  std::size_t size_ OHPX_GUARDED_BY(mutex_) = 0;
  std::uint64_t seq_ OHPX_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> total_{0};
};

/// Renders one record as a single text line (shared by dump() and the
/// exporter; exposed for tests).
std::string format_record(const FlightRecorder::Record& record);

}  // namespace ohpx::introspect
