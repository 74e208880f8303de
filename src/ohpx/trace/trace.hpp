// End-to-end invocation tracing (the observability half of the paper's
// open-implementation thesis: the ORB's protocol decisions are *visible*,
// not hidden).
//
// One remote call becomes one *trace*: a 128-bit trace id minted at the
// stub (or adopted from the wire on the server side), a tree of *spans*
// covering every pipeline stage — protocol selection, each capability's
// process()/unprocess(), payload encode/decode, the transport roundtrip,
// server dispatch and servant execution — and instant *events* for the
// fast-path cache's retry/invalidation decisions.  The context travels as
// an optional wire-header extension (see ohpx/wire/message.hpp), so
// nested, delegated and cross-process calls join the caller's trace.
//
// Cost contract:
//   - compiled in but disabled: every instrumentation point is one relaxed
//     atomic load and a branch (TraceSink::active());
//   - enabled: recording a span is a bounded struct copy into a fixed-
//     capacity per-thread ring buffer (drop-oldest) — no allocation, no
//     shared lock on the hot path.  The only writer/reader synchronization
//     is a per-buffer gate the writer never waits on (a snapshot in flight
//     makes the writer drop that one span instead of blocking).
//
// Sampling has one steering point, the sink: a mode (off / ratio /
// always) and a ratio, set with TraceSink::set_sampling.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace ohpx::trace {

// ---------------------------------------------------------------------------
// identity

/// Propagated per-invocation identity: which trace this thread is inside
/// and which span is the current parent for new child spans.
struct TraceContext {
  std::uint64_t trace_hi = 0;  ///< 128-bit trace id, high half
  std::uint64_t trace_lo = 0;  ///< 128-bit trace id, low half
  std::uint64_t span_id = 0;   ///< active span (parent for children)
  bool sampled = false;

  bool valid() const noexcept { return (trace_hi | trace_lo) != 0; }
};

/// Process-unique span id (never 0 — 0 means "no parent / root").
std::uint64_t next_span_id() noexcept;

/// Mints a fresh sampled root context with a random 128-bit trace id and
/// no active span yet (the first Span under it becomes the root span).
TraceContext mint_root() noexcept;

/// The thread-current trace context (invalid when no trace is active).
/// Invariant: an installed context is always sampled — unsampled calls
/// simply never install one.
TraceContext current_context() noexcept;

// ---------------------------------------------------------------------------
// span records

enum class SpanKind : std::uint8_t {
  invoke = 0,      ///< top-level client call (rmi.invoke)
  selection = 1,   ///< protocol selection incl. cache probe
  capability = 2,  ///< one capability's process()/unprocess()
  encode = 3,      ///< payload/frame encoding
  decode = 4,      ///< reply/frame decoding
  transport = 5,   ///< channel roundtrip (send + server + recv)
  server = 6,      ///< server-side dispatch pipeline
  servant = 7,     ///< user servant execution
  event = 8,       ///< zero-duration marker (retry, invalidation)
};

const char* to_string(SpanKind kind) noexcept;

/// One recorded span.  Fixed-size so ring-buffer writes never allocate:
/// names are expected to be string literals (ohpx-lint's span-names rule
/// enforces this in the hot-path dirs); annotations are bounded copies.
/// Deliberately without member initializers: Span embeds one and must
/// not pay ~100 bytes of zeroing per instrumentation point when tracing
/// is disabled.  Value-initialize (`SpanRecord record{};`) when building
/// one by hand.
struct SpanRecord {
  static constexpr std::size_t kNameCapacity = 24;
  static constexpr std::size_t kAnnotationCapacity = 48;

  std::uint64_t trace_hi;
  std::uint64_t trace_lo;
  std::uint64_t span_id;
  std::uint64_t parent_span;  // 0 = root of its process-local tree
  std::int64_t start_ns;      // steady-clock epoch, process-local
  std::int64_t duration_ns;   // 0 for instant events
  std::uint32_t thread_index; // sink-assigned, stable per thread
  SpanKind kind;
  char name[kNameCapacity];              // NUL-terminated, truncated
  char annotation[kAnnotationCapacity];  // NUL-terminated, truncated
};

/// Everything snapshot() returns — mirrors MetricsRegistry::snapshot().
struct TraceSnapshot {
  std::vector<SpanRecord> spans;  ///< oldest-first within each thread
  std::uint64_t dropped = 0;      ///< ring overwrites + gate collisions
};

// ---------------------------------------------------------------------------
// sampling

enum class Sampling : std::uint8_t {
  off = 0,
  ratio = 1,  ///< sample a fraction of root invocations
  always = 2,
};

/// Root sampling decision for a new invocation, from the sink's mode and
/// ratio.  Ratio mode flips a thread-local PRNG coin.
bool should_sample() noexcept;

// ---------------------------------------------------------------------------
// sink

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Process-wide sink (the only instance; spans from every thread land
  /// here, keyed by a per-thread ring buffer).
  static TraceSink& global();

  /// True when the sampling mode is not off, so a call could start a
  /// trace.  One relaxed load — the entire cost of compiled-in-but-
  /// disabled tracing at each instrumentation point.
  static bool active() noexcept {
    return g_mode.load(std::memory_order_relaxed) !=
           static_cast<int>(Sampling::off);
  }

  /// The sampling mode.  `ratio` is the sampled fraction in [0, 1] (only
  /// meaningful for Sampling::ratio).
  void set_sampling(Sampling mode, double ratio = 1.0) noexcept;

  /// Ring capacity (spans per thread) for buffers created after the call;
  /// existing thread buffers keep their size.
  void set_capacity(std::size_t per_thread_spans);
  std::size_t capacity() const noexcept;

  /// Appends one span to the calling thread's ring (drop-oldest, no
  /// allocation after the thread's first span).  Wait-free for the
  /// writer: a concurrent snapshot makes it drop the span, never block.
  void record(const SpanRecord& record) noexcept;

  /// Copies out every thread's recorded spans (mirrors
  /// MetricsRegistry::snapshot()).  Spans are oldest-first per thread;
  /// use SpanRecord::start_ns for a global order.
  TraceSnapshot snapshot() const;

  /// Discards all recorded spans in place; thread buffers and outstanding
  /// trace contexts stay valid.
  void clear();

  /// Spans lost so far (ring overwrites and snapshot-gate collisions).
  std::uint64_t dropped() const;

 private:
  friend bool should_sample() noexcept;

  TraceSink() = default;

  // Ring-buffer state lives in trace.cpp as file statics: the sink is a
  // singleton, and keeping the thread registry out of the header keeps
  // this type trivially constructible before main().  The mode is static
  // too, so active() reads it without reaching the instance.
  static std::atomic<int> g_mode;

  std::atomic<std::uint64_t> ratio_bits_{0};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
};

// ---------------------------------------------------------------------------
// RAII guards

/// Installs a TraceContext as thread-current for its scope — the client
/// root at the stub, or the adopted wire context in the server pipeline.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& context) noexcept;
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// RAII child span of the thread-current context.  Costs one branch when
/// tracing is inactive or the thread is outside any sampled trace.  While
/// alive, nested Spans parent under it (it installs its id as the current
/// parent and restores on end).
///
/// `name` must outlive the span; pass a string literal (enforced by the
/// ohpx-lint span-names rule in orb/, protocol/ and capability/).
class Span {
 public:
  Span(SpanKind kind, const char* name) noexcept {
    // The entire disabled-tracing cost: one relaxed load and a branch
    // (record_ stays uninitialized; arm() fills it on the sampled path).
    if (TraceSink::active()) arm(kind, name);
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool armed() const noexcept { return armed_; }

  /// Appends bounded text to the span's annotation (space-separated,
  /// truncated at the record's capacity — never allocates).
  void annotate(std::string_view text) noexcept {
    if (armed_) annotate_armed(text);
  }

  /// Appends `label:value` for a small integer value.
  void annotate_u64(std::string_view label, std::uint64_t value) noexcept {
    if (armed_) annotate_u64_armed(label, value);
  }

  /// Records the span now instead of at scope exit (idempotent).
  void end() noexcept {
    if (armed_) finish();
  }

  std::uint64_t span_id() const noexcept { return armed_ ? record_.span_id : 0; }

 private:
  void arm(SpanKind kind, const char* name) noexcept;
  void finish() noexcept;
  void annotate_armed(std::string_view text) noexcept;
  void annotate_u64_armed(std::string_view label, std::uint64_t value) noexcept;

  SpanRecord record_;  // meaningful iff armed_ (see arm())
  std::uint64_t saved_parent_ = 0;
  std::size_t annotation_len_ = 0;
  bool armed_ = false;
};

/// Out-of-line body of event() (the sampled path).
void event_armed(const char* name, std::string_view annotation) noexcept;

/// Records an instant event span (zero duration) under the current trace;
/// a no-op outside a sampled trace.  `name` must be a string literal.
inline void event(const char* name, std::string_view annotation) noexcept {
  if (TraceSink::active()) event_armed(name, annotation);
}

}  // namespace ohpx::trace
