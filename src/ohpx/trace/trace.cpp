#include "ohpx/trace/trace.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <memory>

#include "ohpx/common/rng.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::trace {
namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-local PRNG for trace ids and ratio-sampling coins.  Seeded from
/// a global counter so two threads never share a stream.
Xoshiro256& local_rng() noexcept {
  static std::atomic<std::uint64_t> seed_counter{0x0b5e'7ab1'e5ee'd000ULL};
  thread_local Xoshiro256 rng(
      SplitMix64(seed_counter.fetch_add(1, std::memory_order_relaxed) ^
                 static_cast<std::uint64_t>(now_ns()))
          .next());
  return rng;
}

thread_local TraceContext t_current;

/// One thread's fixed-capacity span ring.  Single writer (the owning
/// thread); snapshot/clear readers take the `busy` gate, and the writer
/// *drops* instead of waiting when it finds the gate held — recording is
/// wait-free and allocation-free after construction.
struct ThreadBuffer {
  ThreadBuffer(std::size_t capacity, std::uint32_t index)
      : slots(capacity), thread_index(index) {}

  std::vector<SpanRecord> slots;
  std::size_t head = 0;   // next write position
  std::size_t count = 0;  // valid records (<= slots.size())
  std::uint64_t overwritten = 0;
  std::uint32_t thread_index = 0;
  std::atomic<bool> busy{false};
  std::atomic<std::uint64_t> gate_drops{0};
};

/// Scoped acquisition of a buffer's gate for readers (snapshot/clear) —
/// spins, unlike the writer, because readers are rare and may not drop.
class GateHold {
 public:
  explicit GateHold(ThreadBuffer& buffer) noexcept : buffer_(buffer) {
    bool expected = false;
    while (!buffer_.busy.compare_exchange_weak(expected, true,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
      expected = false;
    }
  }
  ~GateHold() { buffer_.busy.store(false, std::memory_order_release); }

 private:
  ThreadBuffer& buffer_;
};

/// All thread buffers ever created, under one lock class so the analysis
/// ties the vector to the mutex that guards it.
struct BufferRegistry {
  sync::Mutex mutex{"trace.registry"};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers OHPX_GUARDED_BY(mutex);
};

BufferRegistry& buffer_registry() {
  static BufferRegistry instance;
  return instance;
}

ThreadBuffer& local_buffer(std::size_t capacity) {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    BufferRegistry& reg = buffer_registry();
    sync::LockGuard lock(reg.mutex);
    auto fresh = std::make_shared<ThreadBuffer>(
        capacity, static_cast<std::uint32_t>(reg.buffers.size()));
    buffer = fresh.get();
    reg.buffers.push_back(std::move(fresh));  // outlives the thread so its
                                              // spans survive into snapshots
  }
  return *buffer;
}

void append_bounded(char* dest, std::size_t capacity, std::size_t& used,
                    std::string_view text) noexcept {
  if (used + 1 >= capacity) return;  // full (keep NUL)
  if (used > 0 && used + 2 < capacity) dest[used++] = ' ';
  const std::size_t room = capacity - 1 - used;
  const std::size_t n = text.size() < room ? text.size() : room;
  std::memcpy(dest + used, text.data(), n);
  used += n;
  dest[used] = '\0';
}

}  // namespace

// ---------------------------------------------------------------------------
// identity

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

TraceContext mint_root() noexcept {
  Xoshiro256& rng = local_rng();
  TraceContext context;
  do {
    context.trace_hi = rng.next();
    context.trace_lo = rng.next();
  } while (!context.valid());
  context.span_id = 0;  // the first Span under this context is the root
  context.sampled = true;
  return context;
}

TraceContext current_context() noexcept { return t_current; }

// ---------------------------------------------------------------------------
// sampling

std::atomic<int> TraceSink::g_mode{static_cast<int>(Sampling::off)};

bool should_sample() noexcept {
  switch (static_cast<Sampling>(
      TraceSink::g_mode.load(std::memory_order_relaxed))) {
    case Sampling::off:
      return false;
    case Sampling::always:
      return true;
    case Sampling::ratio: {
      const double ratio = std::bit_cast<double>(
          TraceSink::global().ratio_bits_.load(std::memory_order_relaxed));
      if (ratio >= 1.0) return true;
      if (ratio <= 0.0) return false;
      return local_rng().next_double() < ratio;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// sink

TraceSink& TraceSink::global() {
  static TraceSink sink;
  return sink;
}

void TraceSink::set_sampling(Sampling mode, double ratio) noexcept {
  ratio_bits_.store(std::bit_cast<std::uint64_t>(ratio),
                    std::memory_order_relaxed);
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void TraceSink::set_capacity(std::size_t per_thread_spans) {
  capacity_.store(per_thread_spans > 0 ? per_thread_spans : 1,
                  std::memory_order_relaxed);
}

std::size_t TraceSink::capacity() const noexcept {
  return capacity_.load(std::memory_order_relaxed);
}

void TraceSink::record(const SpanRecord& record) noexcept {
  ThreadBuffer& buffer =
      local_buffer(capacity_.load(std::memory_order_relaxed));
  bool expected = false;
  if (!buffer.busy.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    // A snapshot holds the gate: drop this span rather than stall the
    // invocation pipeline (counted, so reports stay honest).
    buffer.gate_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord& slot = buffer.slots[buffer.head];
  slot = record;
  slot.thread_index = buffer.thread_index;
  buffer.head = (buffer.head + 1) % buffer.slots.size();
  if (buffer.count == buffer.slots.size()) {
    ++buffer.overwritten;  // drop-oldest
  } else {
    ++buffer.count;
  }
  buffer.busy.store(false, std::memory_order_release);
}

TraceSnapshot TraceSink::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    BufferRegistry& reg = buffer_registry();
    sync::LockGuard lock(reg.mutex);
    buffers = reg.buffers;
  }
  TraceSnapshot snap;
  for (const auto& buffer : buffers) {
    GateHold hold(*buffer);
    const std::size_t capacity = buffer->slots.size();
    const std::size_t first =
        buffer->count == capacity ? buffer->head : 0;  // oldest record
    for (std::size_t i = 0; i < buffer->count; ++i) {
      snap.spans.push_back(buffer->slots[(first + i) % capacity]);
    }
    snap.dropped += buffer->overwritten +
                    buffer->gate_drops.load(std::memory_order_relaxed);
  }
  return snap;
}

void TraceSink::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    BufferRegistry& reg = buffer_registry();
    sync::LockGuard lock(reg.mutex);
    buffers = reg.buffers;
  }
  for (const auto& buffer : buffers) {
    GateHold hold(*buffer);
    buffer->head = 0;
    buffer->count = 0;
    buffer->overwritten = 0;
    buffer->gate_drops.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t TraceSink::dropped() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    BufferRegistry& reg = buffer_registry();
    sync::LockGuard lock(reg.mutex);
    buffers = reg.buffers;
  }
  std::uint64_t total = 0;
  for (const auto& buffer : buffers) {
    GateHold hold(*buffer);
    total += buffer->overwritten +
             buffer->gate_drops.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// guards

ContextScope::ContextScope(const TraceContext& context) noexcept
    : saved_(t_current) {
  t_current = context;
}

ContextScope::~ContextScope() { t_current = saved_; }

void Span::arm(SpanKind kind, const char* name) noexcept {
  if (!t_current.valid()) return;  // outside any sampled trace
  armed_ = true;
  std::memset(&record_, 0, sizeof(record_));
  record_.trace_hi = t_current.trace_hi;
  record_.trace_lo = t_current.trace_lo;
  record_.parent_span = t_current.span_id;
  record_.span_id = next_span_id();
  record_.kind = kind;
  std::size_t used = 0;
  append_bounded(record_.name, SpanRecord::kNameCapacity, used,
                 std::string_view(name));
  saved_parent_ = t_current.span_id;
  t_current.span_id = record_.span_id;  // children parent under this span
  record_.start_ns = now_ns();
}

void Span::finish() noexcept {
  armed_ = false;
  record_.duration_ns = now_ns() - record_.start_ns;
  t_current.span_id = saved_parent_;
  TraceSink::global().record(record_);
}

void Span::annotate_armed(std::string_view text) noexcept {
  append_bounded(record_.annotation, SpanRecord::kAnnotationCapacity,
                 annotation_len_, text);
}

void Span::annotate_u64_armed(std::string_view label,
                              std::uint64_t value) noexcept {
  // Render "label:value" into a stack scratch, then append as one token.
  char scratch[SpanRecord::kAnnotationCapacity];
  std::size_t used = 0;
  const std::size_t label_len =
      label.size() < sizeof(scratch) - 22 ? label.size()
                                          : sizeof(scratch) - 22;
  std::memcpy(scratch, label.data(), label_len);
  used = label_len;
  scratch[used++] = ':';
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value > 0 && n < sizeof(digits));
  while (n > 0) scratch[used++] = digits[--n];
  append_bounded(record_.annotation, SpanRecord::kAnnotationCapacity,
                 annotation_len_, std::string_view(scratch, used));
}

void event_armed(const char* name, std::string_view annotation) noexcept {
  if (!t_current.valid()) return;
  SpanRecord record{};
  record.trace_hi = t_current.trace_hi;
  record.trace_lo = t_current.trace_lo;
  record.parent_span = t_current.span_id;
  record.span_id = next_span_id();
  record.kind = SpanKind::event;
  std::size_t used = 0;
  append_bounded(record.name, SpanRecord::kNameCapacity, used,
                 std::string_view(name));
  used = 0;
  append_bounded(record.annotation, SpanRecord::kAnnotationCapacity, used,
                 annotation);
  record.start_ns = now_ns();
  record.duration_ns = 0;
  TraceSink::global().record(record);
}

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::invoke:
      return "invoke";
    case SpanKind::selection:
      return "selection";
    case SpanKind::capability:
      return "capability";
    case SpanKind::encode:
      return "encode";
    case SpanKind::decode:
      return "decode";
    case SpanKind::transport:
      return "transport";
    case SpanKind::server:
      return "server";
    case SpanKind::servant:
      return "servant";
    case SpanKind::event:
      return "event";
  }
  return "unknown";
}

}  // namespace ohpx::trace
