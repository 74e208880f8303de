#include "ohpx/introspect/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "ohpx/trace/trace.hpp"

namespace ohpx::introspect {

const char* to_string(EventKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kEventKinds ? kAnomalyTable[index].name : "unknown";
}

void anomaly(EventKind kind, ErrorCode code, std::string_view detail,
             std::uint64_t count) {
  FlightRecorder& recorder = FlightRecorder::global();
  const auto index = static_cast<std::size_t>(kind);
  for (metrics::MetricsRegistry::Counter* counter : recorder.counters_[index]) {
    if (counter != nullptr) {
      counter->fetch_add(count, std::memory_order_relaxed);
    }
  }
  recorder.record(kind, code, detail);
  const AnomalyRow& row = kAnomalyTable[index];
  trace::event(row.event, code == ErrorCode::ok ? detail : to_string(code));
}

FlightRecorder::FlightRecorder() {
  auto& registry = metrics::MetricsRegistry::global();
  for (const AnomalyRow& row : kAnomalyTable) {
    for (std::size_t i = 0; i < row.counters.size(); ++i) {
      if (row.counters[i] != nullptr) {
        counters_[static_cast<std::size_t>(row.kind)][i] =
            registry.counter_handle(row.counters[i]);
      }
    }
  }
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(EventKind kind, ErrorCode code,
                            std::string_view detail) {
  // Capture the ambient trace before the lock: current_context() is a
  // thread-local read and may be invalid (all-zero) outside any trace.
  const trace::TraceContext tctx = trace::current_context();
  const std::int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  sync::LockGuard lock(mutex_);
  Record& slot = ring_[seq_ % kCapacity];
  slot.wall_ns = wall_ns;
  slot.seq = seq_;
  slot.trace_hi = tctx.valid() ? tctx.trace_hi : 0;
  slot.trace_lo = tctx.valid() ? tctx.trace_lo : 0;
  slot.code = static_cast<std::uint16_t>(code);
  slot.kind = kind;
  const std::size_t n = std::min(detail.size(), kDetailCapacity - 1);
  std::memcpy(slot.detail, detail.data(), n);
  slot.detail[n] = '\0';
  ++seq_;
  size_ = std::min(size_ + 1, kCapacity);
  total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightRecorder::Record> FlightRecorder::snapshot() const {
  sync::LockGuard lock(mutex_);
  std::vector<Record> out;
  out.reserve(size_);
  // Oldest retained record first: when the ring has wrapped, that is the
  // slot seq_ points at (about to be overwritten next).
  const std::uint64_t first = seq_ - size_;
  for (std::uint64_t i = first; i != seq_; ++i) {
    out.push_back(ring_[i % kCapacity]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  sync::LockGuard lock(mutex_);
  return size_;
}

void FlightRecorder::clear() {
  sync::LockGuard lock(mutex_);
  size_ = 0;
}

std::string format_record(const FlightRecorder::Record& record) {
  char line[256];
  const double wall_s = static_cast<double>(record.wall_ns) / 1e9;
  std::snprintf(line, sizeof(line),
                "#%llu t=%.6f %-13s code=%u trace=%016llx%016llx ",
                static_cast<unsigned long long>(record.seq), wall_s,
                to_string(record.kind), record.code,
                static_cast<unsigned long long>(record.trace_hi),
                static_cast<unsigned long long>(record.trace_lo));
  std::string out(line);
  out += record.detail;
  return out;
}

std::string FlightRecorder::dump() const {
  const std::vector<Record> records = snapshot();
  std::ostringstream out;
  out << "flight recorder: " << records.size() << " retained of "
      << total_recorded() << " recorded (capacity " << kCapacity << ")\n";
  for (const Record& record : records) {
    out << format_record(record) << '\n';
  }
  return out.str();
}

// ---- fatal-signal path -----------------------------------------------------

// Reads the ring WITHOUT the mutex: this runs inside a fatal signal
// handler where taking a lock (possibly held by the faulting thread) would
// deadlock the dying process.  A torn record costs one garbled line; the
// NUL terminator written before the seq bump keeps %s bounded either way.
void fatal_signal_render() OHPX_NO_THREAD_SAFETY_ANALYSIS {
  FlightRecorder& recorder = FlightRecorder::global();
  char line[384];
  int n = std::snprintf(line, sizeof(line),
                        "\n==== ohpx flight recorder (fatal signal) ====\n");
  std::fwrite(line, 1, static_cast<std::size_t>(n), stderr);
  const std::uint64_t seq = recorder.seq_;
  const std::uint64_t size = std::min<std::uint64_t>(
      recorder.size_, FlightRecorder::kCapacity);
  for (std::uint64_t i = seq - size; i != seq; ++i) {
    const FlightRecorder::Record& r =
        recorder.ring_[i % FlightRecorder::kCapacity];
    n = std::snprintf(line, sizeof(line),
                      "#%llu t=%lld.%09lld %s code=%u "
                      "trace=%016llx%016llx %s\n",
                      static_cast<unsigned long long>(r.seq),
                      static_cast<long long>(r.wall_ns / 1000000000),
                      static_cast<long long>(r.wall_ns % 1000000000),
                      to_string(r.kind), r.code,
                      static_cast<unsigned long long>(r.trace_hi),
                      static_cast<unsigned long long>(r.trace_lo), r.detail);
    if (n > 0) std::fwrite(line, 1, static_cast<std::size_t>(n), stderr);
  }
  std::fflush(stderr);
}

namespace {

void on_fatal_signal(int sig) {
  fatal_signal_render();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

std::atomic<bool> g_handlers_installed{false};

}  // namespace

void FlightRecorder::install_fatal_signal_dump() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) return;
  (void)global();  // construct the ring before any signal can arrive
  std::signal(SIGSEGV, on_fatal_signal);
  std::signal(SIGABRT, on_fatal_signal);
  std::signal(SIGBUS, on_fatal_signal);
}

}  // namespace ohpx::introspect
