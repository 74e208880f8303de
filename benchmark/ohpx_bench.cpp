// ohpx_bench — the measuring program of the repo benchmark
// (benchmark/README.md).
//
// One process measures one round of one workload, or runs the traced
// layer pass of one workload, and prints one JSON object as its last
// stdout line.  benchmark/run.py starts a fresh process per round, so the
// reactor singleton, the trace rings and the peak RSS start clean, and
// aggregates the rounds.
//
//   ohpx_bench --workload shm_small --seed 1 --round 0 --measure-s 0.5 --cpus 0,1
//   ohpx_bench --workload shm_small --seed 1 --layers --measure-s 0.5 --cpus 0,1
//   ohpx_bench --self-test                          # span attribution check
//
// Every workload is a closed loop driven by the calling thread alone; the
// only other threads are the ORB's own (reactor, listeners) and, for
// xproc_failover, the forked ohpx-named / ohpx-hostd daemons, which are
// killed and reaped before the process exits (and die with it through
// PR_SET_PDEATHSIG if it crashes).  `--cpus G,O` places the generator
// thread on CPU G and every other thread, daemons included, on CPU O.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/naming/failover.hpp"
#include "ohpx/naming/name_client.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/scenario/figure4.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main(): setup_s counts from
// here to the first successful call.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, from /proc (getrusage's
/// ru_maxrss survives execve, so it would report the launcher's peak).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// latency log

/// Fixed-size log-linear histogram of nanosecond values: exact below 64,
/// then 64 linear sub-buckets per power of two, so a quantile read from
/// it is within 1/64 (1.6%) of the exact one.  Recording never allocates,
/// so the generator's memory stays flat however many calls a round makes.
class Histogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kMaxMsb = 40;  // ~18 minutes; larger values clamp
  static constexpr std::size_t kBuckets = (kMaxMsb - kSubBits + 2) * kSub;

  void record(std::uint64_t ns) noexcept {
    ++counts_[index(ns)];
    ++count_;
  }

  std::uint64_t count() const noexcept { return count_; }

  /// The ceil(q * count)-th smallest value, placed within its bucket by
  /// rank (samples spread evenly across a bucket).
  double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const auto [lo, hi] = bounds(i);
        return static_cast<double>(lo) +
               static_cast<double>(hi - lo) *
                   (static_cast<double>(rank - seen) - 0.5) /
                   static_cast<double>(counts_[i]);
      }
      seen += counts_[i];
    }
    return 0.0;
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    int msb = 63 - std::countl_zero(v);
    if (msb > kMaxMsb) {
      msb = kMaxMsb;
      v = (std::uint64_t{1} << (kMaxMsb + 1)) - 1;
    }
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub + ((v >> shift) - kSub);
  }

  static std::pair<std::uint64_t, std::uint64_t> bounds(std::size_t i) noexcept {
    if (i < kSub) return {i, i + 1};
    const std::size_t shift = i / kSub - 1;
    const std::uint64_t mantissa = i % kSub + kSub;
    return {mantissa << shift, (mantissa + 1) << shift};
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// JSON output

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Flat JSON object builder: one line, keys in insertion order.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(key) + ":" + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// forked daemons

/// A forked daemon with its stdout on a pipe.  SIGKILLed and reaped on
/// destruction; PR_SET_PDEATHSIG kills it too if this process dies first.
/// It inherits the forking thread's CPU, which during set-up is the ORB's.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& args) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv{const_cast<char*>(bin.c_str())};
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
  }
  ~Daemon() { kill9(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// One '\n'-terminated stdout line; throws if none arrives in time.
  std::string read_line(int timeout_ms = 10'000) {
    std::string line;
    char byte = 0;
    while (true) {
      pollfd pfd{out_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) break;
      if (::read(out_, &byte, 1) <= 0 || byte == '\n') return line;
      line.push_back(byte);
    }
    throw std::runtime_error("daemon printed no line: " + line);
  }

  void kill9() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_ >= 0) {
      ::close(out_);
      out_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

// ---------------------------------------------------------------------------
// thread placement

/// Pins one thread to one CPU.  False when the thread has already exited
/// or the CPU is not allowed.
bool pin_thread(pid_t tid, int cpu) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(cpu, &cpus);
  return ::sched_setaffinity(tid, sizeof(cpus), &cpus) == 0;
}

/// Pins the calling (generator) thread to `generator_cpu` and every other
/// thread of the process (the reactor loop, listeners, connection
/// workers) to `orb_cpu`.  Threads an ORB thread starts later inherit
/// `orb_cpu`.
void place_threads(int generator_cpu, int orb_cpu) {
  const pid_t self = ::gettid();
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = std::stoi(task.path().filename().string());
    if (tid != self) pin_thread(tid, orb_cpu);
  }
  if (!pin_thread(self, generator_cpu)) {
    throw std::runtime_error("cannot pin to cpu " +
                             std::to_string(generator_cpu));
  }
}

std::string sibling_binary(const char* name) {
  return (std::filesystem::read_symlink("/proc/self/exe").parent_path() / name)
      .string();
}

// ---------------------------------------------------------------------------
// span attribution

constexpr std::size_t kSpanKinds = 8;  // trace::SpanKind::invoke..servant

// The benchmark's own root span around each traced stub call.  No ORB span
// covers the stub's argument marshalling and reply unmarshalling
// (orb/stub.hpp), so its self time is reported as a layer of its own.
constexpr const char* kStubSpan = "bench.stub";
constexpr std::size_t kStubSlot = kSpanKinds;

struct Attribution {
  std::array<double, kSpanKinds + 1> self_ns{};  // by kind, then the stub
  double total_ns = 0.0;
};

/// Self time per span kind.  Within one trace, every instant goes to the
/// open span that started last: on one thread that is the innermost span,
/// and across threads it is the server-side span the client's transport
/// leg is waiting on.  Parent links are not used — capability spans are
/// not children of the transport span they run inside, and server spans
/// parent under the client call, not under the transport leg — so
/// subtracting children by link would count that time twice.  Instants no
/// span of the trace covers are left unattributed.
Attribution attribute(std::vector<trace::SpanRecord> spans) {
  std::erase_if(spans, [](const trace::SpanRecord& s) {
    return s.duration_ns <= 0 ||
           static_cast<std::size_t>(s.kind) >= kSpanKinds;
  });
  std::sort(spans.begin(), spans.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              if (a.trace_hi != b.trace_hi) return a.trace_hi < b.trace_hi;
              return a.trace_lo < b.trace_lo;
            });
  Attribution out;
  std::vector<std::int64_t> edges;
  for (std::size_t begin = 0; begin < spans.size();) {
    std::size_t end = begin + 1;
    while (end < spans.size() && spans[end].trace_hi == spans[begin].trace_hi &&
           spans[end].trace_lo == spans[begin].trace_lo) {
      ++end;
    }
    edges.clear();
    for (std::size_t i = begin; i < end; ++i) {
      edges.push_back(spans[i].start_ns);
      edges.push_back(spans[i].start_ns + spans[i].duration_ns);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (std::size_t e = 0; e + 1 < edges.size(); ++e) {
      const std::int64_t lo = edges[e];
      const std::int64_t hi = edges[e + 1];
      const trace::SpanRecord* owner = nullptr;
      for (std::size_t i = begin; i < end; ++i) {
        const trace::SpanRecord& s = spans[i];
        if (s.start_ns > lo || s.start_ns + s.duration_ns < hi) continue;
        if (owner == nullptr || s.start_ns > owner->start_ns ||
            (s.start_ns == owner->start_ns && s.span_id > owner->span_id)) {
          owner = &s;
        }
      }
      if (owner == nullptr) continue;
      const auto width = static_cast<double>(hi - lo);
      const std::size_t slot = std::strcmp(owner->name, kStubSpan) == 0
                                   ? kStubSlot
                                   : static_cast<std::size_t>(owner->kind);
      out.self_ns[slot] += width;
      out.total_ns += width;
    }
    begin = end;
  }
  return out;
}

trace::SpanRecord synthetic_span(std::uint64_t trace_lo, std::uint64_t id,
                                 std::uint64_t parent, trace::SpanKind kind,
                                 std::int64_t start, std::int64_t end,
                                 std::uint32_t thread,
                                 const char* name = "span") {
  trace::SpanRecord s{};
  s.trace_hi = 1;
  s.trace_lo = trace_lo;
  s.span_id = id;
  s.parent_span = parent;
  s.kind = kind;
  s.start_ns = start;
  s.duration_ns = end - start;
  s.thread_index = thread;
  std::snprintf(s.name, sizeof(s.name), "%s", name);
  return s;
}

/// Checks attribute() on hand-built traces of the two shapes parent-link
/// subtraction gets wrong, plus an async trace whose gap stays uncovered.
int self_test() {
  using K = trace::SpanKind;
  std::vector<trace::SpanRecord> spans;
  // Glue over shm on one thread (cap_bulk), under the benchmark's stub span:
  // the capability spans and the server spans parent under the invoke
  // span, not under the glue / transport spans they run inside.
  spans.push_back(synthetic_span(1, 13, 0, K::invoke, -15, 105, 0, kStubSpan));
  spans.push_back(synthetic_span(1, 1, 13, K::invoke, 0, 100, 0));
  spans.push_back(synthetic_span(1, 2, 1, K::selection, 2, 6, 0));
  spans.push_back(synthetic_span(1, 3, 1, K::transport, 10, 90, 0));  // glue
  spans.push_back(synthetic_span(1, 4, 1, K::capability, 12, 22, 0));
  spans.push_back(synthetic_span(1, 5, 3, K::transport, 25, 80, 0));  // shm
  spans.push_back(synthetic_span(1, 6, 5, K::encode, 26, 30, 0));
  spans.push_back(synthetic_span(1, 7, 5, K::transport, 31, 70, 0));  // leg
  spans.push_back(synthetic_span(1, 8, 1, K::server, 35, 65, 0));
  spans.push_back(synthetic_span(1, 9, 8, K::capability, 36, 40, 0));
  spans.push_back(synthetic_span(1, 10, 8, K::servant, 42, 60, 0));
  spans.push_back(synthetic_span(1, 11, 5, K::decode, 72, 78, 0));
  spans.push_back(synthetic_span(1, 12, 1, K::capability, 82, 88, 0));
  // Sync TCP (xproc, tcp): the client's transport span waits while the
  // server thread runs the same trace.  A second trace overlaps it in time
  // on other threads and must not leak into it.
  for (const std::uint64_t t : {2u, 3u}) {
    const std::int64_t at = t == 2 ? 0 : 30;
    const std::uint32_t thread = t == 2 ? 1 : 3;
    const std::uint64_t id = t * 100;
    spans.push_back(synthetic_span(t, id, 0, K::invoke, at, at + 100, thread));
    spans.push_back(
        synthetic_span(t, id + 1, id, K::selection, at + 5, at + 10, thread));
    spans.push_back(
        synthetic_span(t, id + 2, id, K::transport, at + 20, at + 95, thread));
    spans.push_back(
        synthetic_span(t, id + 3, id, K::server, at + 40, at + 80, thread + 1));
    spans.push_back(synthetic_span(t, id + 4, id + 3, K::servant, at + 50,
                                   at + 70, thread + 1));
  }
  // Async submit: client and server spans do not overlap; the gap between
  // them (the wire and the window) belongs to no span.
  spans.push_back(synthetic_span(4, 400, 0, K::invoke, 0, 10, 5));
  spans.push_back(synthetic_span(4, 401, 400, K::server, 50, 60, 6));
  spans.push_back(synthetic_span(4, 402, 400, K::event, 55, 55, 6));

  std::array<double, kSpanKinds + 1> want{};
  auto add = [&want](K kind, double ns) {
    want[static_cast<std::size_t>(kind)] += ns;
  };
  // Trace 1: 120 ns in total.
  want[kStubSlot] = 20;    // 120 - invoke span 100
  add(K::invoke, 16);      // 100 - select 4 - glue span 80
  add(K::selection, 4);
  add(K::capability, 20);  // 10 + 4 + 6
  add(K::encode, 4);
  add(K::decode, 6);
  add(K::transport, 24);   // glue 9 + shm 6 + leg 9
  add(K::server, 8);       // 30 - cap 4 - servant 18
  add(K::servant, 18);
  // Traces 2 and 3: 100 ns each.
  for (int t = 0; t < 2; ++t) {
    add(K::invoke, 20);     // 100 - select 5 - transport 75
    add(K::selection, 5);
    add(K::transport, 35);  // 75 - server 40
    add(K::server, 20);     // 40 - servant 20
    add(K::servant, 20);
  }
  // Trace 4: 20 ns of 60 covered.
  add(K::invoke, 10);
  add(K::server, 10);

  const Attribution got = attribute(spans);
  int mismatches = 0;
  double want_total = 0.0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    want_total += want[k];
    if (got.self_ns[k] != want[k]) {
      std::fprintf(stderr, "self-test: %s self %.0f ns, expected %.0f\n",
                   k == kStubSlot ? kStubSpan : trace::to_string(static_cast<K>(k)),
                   got.self_ns[k], want[k]);
      ++mismatches;
    }
  }
  if (got.total_ns != want_total) {
    std::fprintf(stderr, "self-test: total %.0f ns, expected %.0f\n",
                 got.total_ns, want_total);
    ++mismatches;
  }
  std::printf("%s\n", JsonLine()
                          .str("self_test", mismatches == 0 ? "pass" : "fail")
                          .num("mismatches", mismatches)
                          .done()
                          .c_str());
  return mismatches == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// workloads

/// One stretch of the closed loop: runs until `deadline` or `max_calls`,
/// whichever comes first.
struct Phase {
  Clock::time_point deadline;
  std::uint64_t max_calls;
  Histogram* latency;  // per-call latencies, when wanted

  std::uint64_t calls = 0;    // completed and correct
  std::uint64_t failed = 0;   // threw or returned a wrong result
  double payload_bytes = 0;   // useful payload, both directions
  double latency_ns = 0;      // sum over completed calls
  double settle_wait_ns = 0;  // generator time blocked on futures
  Clock::time_point started;
  Clock::time_point ended;

  Phase(double seconds, std::uint64_t limit, Histogram* log)
      : deadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds))),
        max_calls(limit),
        latency(log),
        started(Clock::now()),
        ended(started) {}

  bool open(Clock::time_point now) const {
    return now < deadline && calls + failed < max_calls;
  }
  double elapsed_s() const { return seconds_between(started, ended); }
  double calls_per_s() const {
    const double s = elapsed_s();
    return s > 0 ? static_cast<double>(calls) / s : 0.0;
  }
  void note(std::uint64_t latency_ns_value, double bytes) {
    ++calls;
    payload_bytes += bytes;
    latency_ns += static_cast<double>(latency_ns_value);
    if (latency != nullptr) latency->record(latency_ns_value);
  }
};

/// Named per-layer values a workload adds to the layer pass.
using Layers = std::map<std::string, double>;

/// Thrown by a call whose reply does not match what was sent.
struct WrongResult : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::vector<std::int32_t> seeded_ints(Xoshiro256& rng, std::size_t n) {
  std::vector<std::int32_t> values(n);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.next());
  return values;
}

std::vector<std::vector<std::int32_t>> seeded_payloads(Xoshiro256& rng,
                                                       std::size_t count,
                                                       std::size_t min_len,
                                                       std::size_t max_len) {
  std::vector<std::vector<std::int32_t>> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(seeded_ints(
        rng, min_len + rng.next_below(max_len - min_len + 1)));
  }
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system and makes the first successful call.
  virtual void setup() = 0;
  /// Drives calls until the phase closes; nothing is in flight after.
  virtual void run(Phase& phase) = 0;
  /// Makes the workload's one disruptive event (a kill) happen in the
  /// next phase.
  virtual void arm_event() {}
  /// End-of-round invariants; a violation counts as a failure.
  virtual void check() {}
  /// Workload-specific layer probes, run untraced after the plain stretch.
  virtual void probe(Layers&) {}

  std::uint64_t failures() const { return failures_; }
  const std::vector<std::string>& errors() const { return errors_; }

 protected:
  void fail(const std::string& what) {
    ++failures_;
    if (errors_.size() < 8) errors_.push_back(what);
  }

  /// Makes one stub call.  While tracing is on it runs under a fresh root
  /// trace and the benchmark's stub span, which the ORB's spans join.
  template <typename Call>
  static auto stub_call(Call&& call) {
    if (!trace::TraceSink::active()) return call();
    trace::ContextScope root(trace::mint_root());
    trace::Span stub(trace::SpanKind::invoke, kStubSpan);
    return call();
  }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> errors_;
};

/// Closed loop of synchronous calls; `call_once` returns the useful
/// payload bytes it moved and throws on any failure.
class SyncWorkload : public Workload {
 public:
  void run(Phase& phase) override {
    phase.started = Clock::now();
    Clock::time_point t0 = phase.started;
    while (phase.open(t0) || event_pending()) {
      if (before_call(phase)) t0 = Clock::now();  // untimed admin work
      try {
        const double bytes = call_once();
        const Clock::time_point t1 = Clock::now();
        phase.note(ns_between(t0, t1), bytes);
        t0 = t1;
      } catch (const std::exception& e) {
        ++phase.failed;
        fail(e.what());
        t0 = Clock::now();
      }
    }
    phase.ended = t0;
  }

 protected:
  /// Runs before each call, off the clock; true when it did work.
  virtual bool before_call(const Phase&) { return false; }
  /// True while an armed event has not happened yet (the loop runs past
  /// its deadline until it has).
  virtual bool event_pending() const { return false; }
  virtual double call_once() = 0;
};

/// Echo between two contexts on one machine.  shm_small and cap_bulk
/// differ only in the protocol table, the payload sizes and the protocol
/// the ORB must select from that table.
class InProcessEcho final : public SyncWorkload {
 public:
  using Table = std::function<orb::RefBuilder&(orb::RefBuilder&)>;

  InProcessEcho(std::vector<std::vector<std::int32_t>> payloads, Table table,
                std::string expected_protocol)
      : payloads_(std::move(payloads)),
        table_(std::move(table)),
        expected_protocol_(std::move(expected_protocol)) {}

  void setup() override {
    const auto lan = world_.add_lan("lan-1");
    const auto machine = world_.add_machine("bench-box", lan);
    orb::Context& server = world_.create_context(machine);
    orb::Context& client = world_.create_context(machine);
    orb::RefBuilder builder(server, std::make_shared<scenario::EchoServant>());
    gp_.emplace(client, table_(builder).build());
    call_once();
    if ((*gp_)->last_protocol() != expected_protocol_) {
      fail("selected " + (*gp_)->last_protocol() + ", expected " +
           expected_protocol_);
    }
  }

 protected:
  double call_once() override {
    const auto& payload = payloads_[next_++ % payloads_.size()];
    const auto reply = stub_call([&] { return (*gp_)->echo(payload); });
    if (reply != payload) throw WrongResult("echo mismatch");
    return 8.0 * static_cast<double>(payload.size());
  }

 private:
  std::vector<std::vector<std::int32_t>> payloads_;
  Table table_;
  std::string expected_protocol_;
  std::size_t next_ = 0;
  runtime::World world_;
  std::optional<scenario::EchoPointer> gp_;
};

// shm_small — the fixed per-call ORB cost: echo of 1-64 int32 through the
// Figure 3 table [glue(auth, cross_lan), shm, nexus].  Client and server
// share a machine, so glue is inapplicable and shm wins; the selection
// cache hits on every call.
std::unique_ptr<Workload> shm_small(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  auto auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_seed(rng.next()), "bench", cap::Scope::cross_lan);
  return std::make_unique<InProcessEcho>(
      seeded_payloads(rng, 256, 1, 64),
      [auth](orb::RefBuilder& b) -> orb::RefBuilder& {
        return b.glue({auth}, "nexus-tcp").shm().nexus();
      },
      "shm");
}

// cap_bulk — per-byte capability and marshalling cost: echo of 65,536
// int32 (256 KiB) through glue[authentication(always), encryption] -> shm.
// The paper's §5 capability-overhead claim with no network time to hide
// it.
std::unique_ptr<Workload> cap_bulk(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto key = crypto::Key128::from_seed(rng.next());
  std::vector<cap::CapabilityPtr> chain{
      std::make_shared<cap::AuthenticationCapability>(key, "bench",
                                                      cap::Scope::always),
      std::make_shared<cap::EncryptionCapability>(key)};
  return std::make_unique<InProcessEcho>(
      seeded_payloads(rng, 2, 65536, 65536),
      [chain](orb::RefBuilder& b) -> orb::RefBuilder& {
        return b.glue(chain, "shm");
      },
      "glue[authentication,encryption]->shm");
}

/// p50 of a sync stub ping minus the p50 of Reactor::submit().get() of
/// the same request frame to the same server, interleaved call by call:
/// what the ORB adds on top of the bare transport round trip.
template <typename Ping>
double orb_overhead_us(Ping&& stub_ping, const std::string& host,
                       std::uint16_t port, std::uint64_t object_id) {
  // Exact medians: the difference of two ~30 us medians is a few bucket
  // widths of the latency log.
  constexpr std::size_t kPairs = 2000;
  std::vector<std::uint64_t> stub_ns;
  std::vector<std::uint64_t> bare_ns;
  stub_ns.reserve(kPairs);
  bare_ns.reserve(kPairs);
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.object_id = object_id;
  header.method_or_code = scenario::EchoServant::kPing;
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto t0 = Clock::now();
    stub_ping();
    stub_ns.push_back(ns_between(t0, Clock::now()));
    header.request_id = (std::uint64_t{1} << 62) + i;
    t0 = Clock::now();
    const transport::RawReply reply =
        transport::Reactor::global().submit(host, port, header, BytesView{})
            .get();
    bare_ns.push_back(ns_between(t0, Clock::now()));
    if (reply.header.type != wire::MessageType::reply) {
      throw WrongResult("bare ping got no reply frame");
    }
  }
  auto median = [](std::vector<std::uint64_t>& ns) {
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    return static_cast<double>(ns[ns.size() / 2]);
  };
  return (median(stub_ns) - median(bare_ns)) / 1000.0;
}

// tcp_fanin — transport-bound throughput: loopback TCP through the
// reactor to an in-process server context.  The generator keeps 256
// call_async futures in flight (a quarter of the reactor's 1024 window, so
// backpressure must stay zero) with a seeded ping / echo(16) mix.
class TcpFanin final : public Workload {
 public:
  static constexpr std::size_t kWindow = 256;

  explicit TcpFanin(std::uint64_t seed) {
    Xoshiro256 rng(seed);
    payloads_ = seeded_payloads(rng, 64, 16, 16);
    for (auto& is_echo : ops_) is_echo = (rng.next() & 1) != 0;
  }

  void setup() override {
    const auto lan = world_.add_lan("lan");
    orb::Context& client = world_.create_context(world_.add_machine("client", lan));
    server_ = &world_.create_context(world_.add_machine("server", lan));
    server_->enable_tcp();
    ref_ = orb::RefBuilder(*server_, std::make_shared<scenario::EchoServant>())
               .tcp()
               .build();
    stub_.emplace(client, ref_);
    last_ping_ = stub_->ping();
    auto& registry = metrics::MetricsRegistry::global();
    backpressure_start_ =
        registry.counter(metrics::names::kReactorBackpressure) +
        registry.counter(metrics::names::kRmiBackpressure);
  }

  /// Fills the window, keeps it full until the phase closes, then drains
  /// it, so every call submitted in a phase also settles in it.
  void run(Phase& phase) override {
    phase.started = Clock::now();
    Clock::time_point now = phase.started;
    std::uint64_t sent = 0;
    while (true) {
      if (inflight_ < kWindow && now < phase.deadline &&
          sent < phase.max_calls) {
        ++sent;
        if (!submit()) {
          ++phase.failed;
          now = Clock::now();
        }
        continue;
      }
      if (inflight_ == 0) break;
      const Clock::time_point t0 = Clock::now();
      Slot& slot = ring_[head_];
      const double bytes = settle(slot);
      now = Clock::now();
      head_ = (head_ + 1) % kWindow;
      --inflight_;
      phase.settle_wait_ns += static_cast<double>(ns_between(t0, now));
      if (bytes >= 0) {
        phase.note(ns_between(slot.submitted, now), bytes);
      } else {
        ++phase.failed;
      }
    }
    phase.ended = now;
  }

  void check() override {
    if (settled_ != submitted_) {
      fail(std::to_string(submitted_ - settled_) + " futures never settled");
    }
    auto& registry = metrics::MetricsRegistry::global();
    const std::uint64_t backpressure =
        registry.counter(metrics::names::kReactorBackpressure) +
        registry.counter(metrics::names::kRmiBackpressure) -
        backpressure_start_;
    if (backpressure != 0) {
      fail(std::to_string(backpressure) + " calls refused with backpressure");
    }
  }

  void probe(Layers& layers) override {
    const proto::ServerAddress address = server_->current_address();
    layers["orb.overhead_us"] =
        orb_overhead_us([this] { stub_->ping(); }, address.tcp_host,
                        address.tcp_port, ref_.object_id());
    // The probe's pings moved the server's count on.
    last_ping_ = stub_->ping();
  }

 private:
  struct Slot {
    bool is_echo = false;
    std::size_t payload = 0;
    Clock::time_point submitted;
    Future<std::uint64_t> ping;
    Future<std::vector<std::int32_t>> echo;
  };

  /// Submits the next call into the window; false when it was refused.
  bool submit() {
    Slot& slot = ring_[(head_ + inflight_) % kWindow];
    slot.is_echo = ops_[next_op_++ % ops_.size()];
    slot.submitted = Clock::now();
    try {
      if (slot.is_echo) {
        slot.payload = next_payload_++ % payloads_.size();
        slot.echo = stub_call([&] {
          return stub_->call_async<std::vector<std::int32_t>>(
              scenario::EchoServant::kEcho, payloads_[slot.payload]);
        });
      } else {
        slot.ping = stub_call([&] {
          return stub_->call_async<std::uint64_t>(scenario::EchoServant::kPing);
        });
      }
    } catch (const std::exception& e) {
      // Refused synchronously (backpressure): nothing is in flight.
      fail(e.what());
      return false;
    }
    ++submitted_;
    ++inflight_;
    return true;
  }

  /// Waits for one call; its payload bytes, or -1 when it failed.
  double settle(Slot& slot) {
    ++settled_;
    try {
      if (slot.is_echo) {
        if (slot.echo.get() != payloads_[slot.payload]) {
          throw WrongResult("echo mismatch");
        }
        return 8.0 * static_cast<double>(payloads_[slot.payload].size());
      }
      // One connection, one server thread: pings are served in order.
      const std::uint64_t pings = slot.ping.get();
      if (pings <= last_ping_) throw WrongResult("ping count went backwards");
      last_ping_ = pings;
      return 8.0;
    } catch (const std::exception& e) {
      fail(e.what());
      return -1.0;
    }
  }

  std::vector<std::vector<std::int32_t>> payloads_;
  std::array<bool, 4096> ops_{};
  runtime::World world_;
  orb::Context* server_ = nullptr;
  orb::ObjectRef ref_;
  std::optional<scenario::EchoStub> stub_;
  std::array<Slot, kWindow> ring_;
  std::size_t head_ = 0;
  std::size_t inflight_ = 0;
  std::size_t next_op_ = 0;
  std::size_t next_payload_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t settled_ = 0;
  std::uint64_t last_ping_ = 0;
  std::uint64_t backpressure_start_ = 0;
};

// xproc_failover — the deployed path: a forked ohpx-named and two
// ohpx-hostd replicas.  Sync echo(16) calls go through
// naming::ReplicaPointer across the process boundary, and at a seeded call
// index early in the measured stretch the bound replica is kill -9'd, so
// every round contains exactly one failover.
class XprocFailover final : public SyncWorkload {
 public:
  static constexpr const char* kName = "svc/echo";

  XprocFailover(std::uint64_t seed, double measure_s) {
    Xoshiro256 rng(seed);
    payloads_ = seeded_payloads(rng, 64, 16, 16);
    // Assumes no less than 5k calls/s (measured: 20k-35k), so the kill
    // lands in the first half of the stretch.
    kill_at_ = static_cast<std::uint64_t>((0.3 + 0.4 * rng.next_double()) *
                                          measure_s * 5000.0);
  }

  void setup() override {
    const auto spawned = Clock::now();
    named_ = std::make_unique<Daemon>(sibling_binary("ohpx_named"),
                                      std::vector<std::string>{});
    unsigned named_port = 0;
    char uri[128] = {0};
    const std::string ready = named_->read_line();
    if (std::sscanf(ready.c_str(), "READY %u %127s", &named_port, uri) != 2) {
      throw std::runtime_error("ohpx-named did not come up: " + ready);
    }
    const std::string named_uri = "127.0.0.1:" + std::to_string(named_port);
    // One at a time: hostd prints READY only after advertise(), so this
    // pins the directory order (and with it the first bind).
    for (auto& replica : replicas_) {
      const std::string machine = &replica == &replicas_[0] ? "srv-a" : "srv-b";
      replica.daemon = std::make_unique<Daemon>(
          sibling_binary("ohpx_hostd"),
          std::vector<std::string>{"--named", named_uri, "--machine", machine,
                                   "--serve", kName});
      const std::string line = replica.daemon->read_line();
      int pid = 0;
      unsigned long long id = 0;
      if (std::sscanf(line.c_str(), "READY %d %u %llu", &pid, &replica.port,
                      &id) != 3) {
        throw std::runtime_error("ohpx-hostd did not come up: " + line);
      }
    }
    daemon_ready_ms_ = seconds_between(spawned, Clock::now()) * 1e3;

    const auto lan = world_.add_lan("client-lan");
    orb::Context& ctx = world_.create_context(world_.add_machine("client", lan));
    names_.emplace(ctx, named_uri);
    echo_.emplace(ctx, *names_, kName);
    call_once();
  }

  void arm_event() override { armed_ = true; }

  void check() override {
    if (echo_->attempts() != ok_calls_ + echo_->failovers()) {
      fail("attempts " + std::to_string(echo_->attempts()) + " != calls " +
           std::to_string(ok_calls_) + " + failovers " +
           std::to_string(echo_->failovers()));
    }
    if (echo_->failovers() != kills_) {
      fail(std::to_string(echo_->failovers()) + " failovers for " +
           std::to_string(kills_) + " kill(s)");
    }
  }

  void probe(Layers& layers) override {
    layers["runtime.daemon_ready_ms"] = daemon_ready_ms_;
    layers["naming.failover_call_ms"] = failover_call_ms_;
    layers["naming.failovers"] = static_cast<double>(echo_->failovers());
    Histogram resolve_log;
    for (int i = 0; i < 200; ++i) {
      names_->invalidate(kName);
      const auto t0 = Clock::now();
      names_->resolve(kName);
      resolve_log.record(ns_between(t0, Clock::now()));
    }
    layers["naming.resolve_us"] = resolve_log.quantile(0.5) / 1000.0;
    const orb::ObjectRef bound = echo_->current_ref();
    layers["orb.overhead_us"] =
        orb_overhead_us([this] { echo_->stub().ping(); }, bound.home().tcp_host,
                        bound.home().tcp_port, bound.object_id());
  }

 protected:
  bool before_call(const Phase& phase) override {
    if (!armed_ || phase.calls + phase.failed < kill_at_) return false;
    armed_ = false;
    const unsigned bound = echo_->current_ref().home().tcp_port;
    for (auto& replica : replicas_) {
      if (replica.port == bound) replica.daemon->kill9();
    }
    ++kills_;
    time_next_call_ = true;
    return true;
  }

  bool event_pending() const override { return armed_; }

  double call_once() override {
    const auto& payload = payloads_[next_++ % payloads_.size()];
    const auto t0 = time_next_call_ ? Clock::now() : Clock::time_point{};
    const auto reply = stub_call([&] {
      return echo_->call(
          [&payload](scenario::EchoStub& stub) { return stub.echo(payload); });
    });
    if (time_next_call_) {
      failover_call_ms_ = seconds_between(t0, Clock::now()) * 1e3;
      time_next_call_ = false;
    }
    if (reply != payload) throw WrongResult("echo mismatch");
    ++ok_calls_;
    return 8.0 * static_cast<double>(payload.size());
  }

 private:
  struct Replica {
    std::unique_ptr<Daemon> daemon;
    unsigned port = 0;
  };

  std::vector<std::vector<std::int32_t>> payloads_;
  std::uint64_t kill_at_ = 0;
  std::size_t next_ = 0;
  bool armed_ = false;
  bool time_next_call_ = false;
  std::uint64_t kills_ = 0;
  std::uint64_t ok_calls_ = 0;
  double daemon_ready_ms_ = 0;
  double failover_call_ms_ = 0;
  // Declared before the client objects so the daemons outlive them.
  std::unique_ptr<Daemon> named_;
  std::array<Replica, 2> replicas_;
  runtime::World world_;
  std::optional<naming::NameClient> names_;
  std::optional<naming::ReplicaPointer<scenario::EchoStub>> echo_;
};

// fig4_migrate — the paper's §4 adaptivity: Figure4Scenario's client on M0
// makes echo(16) calls while the server pseudo-migrates M1 -> M2 -> M3 ->
// M0 (and round again) every 200-2000 calls (seeded).  Each migration
// invalidates the selection cache and changes which capabilities apply;
// the first call of each stage must pick the protocol the paper names.
class Fig4Migrate final : public SyncWorkload {
 public:
  explicit Fig4Migrate(std::uint64_t seed)
      : fig_(netsim::atm_155(), netsim::wan_t3()) {
    Xoshiro256 rng(seed);
    payloads_ = seeded_payloads(rng, 64, 16, 16);
    for (auto& interval : intervals_) interval = 200 + rng.next_below(1801);
  }

  void setup() override {
    gp_.emplace(fig_.client_pointer());
    check_protocol_ = true;
    call_once();
  }

  void probe(Layers& layers) override {
    layers["runtime.migrate_us"] = migrate_log_.quantile(0.5) / 1000.0;
  }

 protected:
  bool before_call(const Phase&) override {
    if (++since_migration_ < intervals_[migrations_ % intervals_.size()]) {
      return false;
    }
    since_migration_ = 0;
    ++migrations_;
    stage_ = (stage_ + 1) % kStages.size();
    const auto t0 = Clock::now();
    fig_.migrate_to(machine(stage_));
    migrate_log_.record(ns_between(t0, Clock::now()));
    check_protocol_ = true;
    return true;
  }

  double call_once() override {
    const auto& payload = payloads_[next_++ % payloads_.size()];
    const auto reply = stub_call([&] { return (*gp_)->echo(payload); });
    if (reply != payload) throw WrongResult("echo mismatch");
    if (check_protocol_) {
      check_protocol_ = false;
      const std::string protocol = (*gp_)->last_protocol();
      if (protocol != kStages[stage_]) {
        throw WrongResult("stage " + std::to_string(stage_) + " selected " +
                          protocol + ", paper says " + kStages[stage_]);
      }
    }
    return 8.0 * static_cast<double>(payload.size());
  }

 private:
  // Expected protocol per stage (paper §5), server on M1, M2, M3, M0.
  static constexpr std::array<const char*, 4> kStages = {
      "glue[quota,authentication]->nexus-tcp", "glue[quota]->nexus-tcp",
      "nexus-tcp", "shm"};

  netsim::MachineId machine(std::size_t stage) const {
    switch (stage) {
      case 0: return fig_.m1();
      case 1: return fig_.m2();
      case 2: return fig_.m3();
      default: return fig_.m0();
    }
  }

  scenario::Figure4Scenario fig_;
  std::optional<scenario::EchoPointer> gp_;
  std::vector<std::vector<std::int32_t>> payloads_;
  // An odd count, so each interval serves every stage in turn and the
  // per-stage share of calls does not depend on the seed.
  std::array<std::uint64_t, 63> intervals_{};
  std::size_t next_ = 0;
  std::size_t stage_ = 0;
  std::uint64_t since_migration_ = 0;
  std::uint64_t migrations_ = 0;
  bool check_protocol_ = false;
  Histogram migrate_log_;
};

/// Input seed of one (seed, workload, round): the same triple always
/// generates the same payloads, kill point and migration intervals.
std::uint64_t mix_seed(std::uint64_t seed, const std::string& workload,
                       std::uint64_t round) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL + round;
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return SplitMix64(h).next();
}

constexpr std::array<const char*, 5> kWorkloads = {
    "shm_small", "cap_bulk", "tcp_fanin", "xproc_failover", "fig4_migrate"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double measure_s) {
  if (name == "shm_small") return shm_small(seed);
  if (name == "cap_bulk") return cap_bulk(seed);
  if (name == "tcp_fanin") return std::make_unique<TcpFanin>(seed);
  if (name == "xproc_failover") {
    return std::make_unique<XprocFailover>(seed, measure_s);
  }
  if (name == "fig4_migrate") return std::make_unique<Fig4Migrate>(seed);
  return nullptr;
}

std::string errors_json(const Workload& w) {
  std::string out = "[";
  for (const std::string& e : w.errors()) {
    if (out.size() > 1) out += ",";
    out += json_string(e);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// one measured round

// Warm-up before every measured stretch: long enough to fault in the
// buffers and fill the selection cache, which takes a few thousand calls.
constexpr double kWarmupS = 0.1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t round = 0;
  double measure_s = 0.5;
  int generator_cpu = -1;  // --cpus G,O
  int orb_cpu = -1;
  bool layers = false;
  bool self_test = false;
};

/// Set-up, then warm-up, with the threads placed after each: set-up
/// starts the ORB's threads, and warm-up may start more.  Returns the
/// set-up time, from process start to the first successful call.
double setup_and_warm(Workload& w, const Options& opt) {
  w.setup();
  const double setup_s = seconds_between(g_process_start, Clock::now());
  place_threads(opt.generator_cpu, opt.orb_cpu);
  Phase warm(kWarmupS, UINT64_MAX, nullptr);
  w.run(warm);
  place_threads(opt.generator_cpu, opt.orb_cpu);
  return setup_s;
}

int run_round(const Options& opt) {
  auto w = make_workload(opt.workload,
                         mix_seed(opt.seed, opt.workload, opt.round),
                         opt.measure_s);
  const double setup_s = setup_and_warm(*w, opt);

  Histogram latency;
  w->arm_event();
  const double cpu0 = process_cpu_seconds();
  Phase measured(opt.measure_s, UINT64_MAX, &latency);
  w->run(measured);
  const double cpu_s = process_cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();
  w->check();

  std::printf("%s\n",
              JsonLine()
                  .str("workload", opt.workload)
                  .num("round", static_cast<double>(opt.round))
                  .num("calls", static_cast<double>(measured.calls))
                  .num("failed", static_cast<double>(w->failures()))
                  .raw("errors", errors_json(*w))
                  .num("elapsed_s", measured.elapsed_s())
                  .num("cpu_s", cpu_s)
                  .num("setup_s", setup_s)
                  .num("peak_rss_mb", rss_mb)
                  .num("payload_bytes", measured.payload_bytes)
                  .num("samples", static_cast<double>(latency.count()))
                  .num("p50_ns", latency.quantile(0.50))
                  .str("compiler_version", __VERSION__)
                  .done()
                  .c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// traced layer pass

// Ring size per thread and the traced-call bound are matched: a call
// records at most ~20 spans, so kTracedCalls calls never wrap a ring.
constexpr std::size_t kRingSpans = 1u << 18;
constexpr std::uint64_t kTracedCalls = 10'000;
constexpr double kTracedSeconds = 1.0;

/// Registry counters read when a stretch starts; since() is the count
/// added after that.
class CounterWindow {
 public:
  explicit CounterWindow(std::initializer_list<const char*> names) {
    for (const char* name : names) start_[name] = read(name);
  }
  double since(const char* name) const {
    return static_cast<double>(read(name) - start_.at(name));
  }

 private:
  static std::uint64_t read(const char* name) {
    return metrics::MetricsRegistry::global().counter(name);
  }
  std::map<std::string, std::uint64_t> start_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int run_layers(const Options& opt) {
  auto& sink = trace::TraceSink::global();
  sink.set_capacity(kRingSpans);  // before any ORB thread records a span
  auto w = make_workload(opt.workload, mix_seed(opt.seed, opt.workload, 0),
                         opt.measure_s);
  setup_and_warm(*w, opt);

  // Untraced stretch: the baseline for the overhead ratio, and the
  // window for the registry counters.
  using namespace metrics::names;
  auto& registry = metrics::MetricsRegistry::global();
  registry.latency_handle(kReactorLoopLag)->reset();
  const CounterWindow counted{
      kRmiSelectCacheHit,   kRmiSelectCacheMiss,    kRmiRetries,
      kReactorFrames,       kReactorBatches,        kReactorBackpressure,
      kNamingResolveCacheHit, kNamingResolveCacheMiss};
  w->arm_event();
  Histogram latency;
  Phase plain(opt.measure_s, UINT64_MAX, &latency);
  w->run(plain);
  const auto calls = static_cast<double>(plain.calls);
  Layers layers;
  layers["p99_us"] = latency.quantile(0.99) / 1000.0;
  const double hits = counted.since(kRmiSelectCacheHit);
  layers["orb.select.cache_hit_ratio"] =
      ratio(hits, hits + counted.since(kRmiSelectCacheMiss));
  layers["orb.retries_per_kcall"] =
      ratio(1000.0 * counted.since(kRmiRetries), calls);
  layers["transport.frames_per_batch"] =
      ratio(counted.since(kReactorFrames), counted.since(kReactorBatches));
  layers["transport.settle_wait_us"] = ratio(plain.settle_wait_ns / 1000.0, calls);
  layers["transport.loop_lag_p99_us"] = static_cast<double>(
      registry.latency_handle(kReactorLoopLag)->approximate_quantile_us(0.99));
  layers["transport.backpressure_per_kcall"] =
      ratio(1000.0 * counted.since(kReactorBackpressure), calls);
  const double resolve_hits = counted.since(kNamingResolveCacheHit);
  layers["naming.resolve_cache_hit_ratio"] = ratio(
      resolve_hits, resolve_hits + counted.since(kNamingResolveCacheMiss));
  // Metrics only some workloads have read 0 on the others.
  for (const char* name :
       {"orb.overhead_us", "naming.resolve_us", "naming.failover_call_ms",
        "naming.failovers", "runtime.migrate_us", "runtime.daemon_ready_ms"}) {
    layers[name] = 0.0;
  }
  w->probe(layers);

  // Traced: one pass to fault in the rings, then the measured pass.
  sink.set_sampling(trace::Sampling::always);
  Phase warm_traced(kTracedSeconds, kTracedCalls, nullptr);
  w->run(warm_traced);
  sink.set_sampling(trace::Sampling::off);
  sink.clear();
  sink.set_sampling(trace::Sampling::always);
  Phase traced(kTracedSeconds, kTracedCalls, nullptr);
  w->run(traced);
  sink.set_sampling(trace::Sampling::off);
  const trace::TraceSnapshot snapshot = sink.snapshot();
  const Attribution attributed = attribute(snapshot.spans);

  const auto traced_calls = static_cast<double>(traced.calls);
  auto per_call = [&](trace::SpanKind kind) {
    return ratio(attributed.self_ns[static_cast<std::size_t>(kind)], traced_calls);
  };
  using K = trace::SpanKind;
  layers["orb.stub.self_ns"] =
      ratio(attributed.self_ns[kStubSlot], traced_calls);
  layers["orb.invoke.self_ns"] = per_call(K::invoke);
  layers["orb.select.self_ns"] = per_call(K::selection);
  layers["orb.server.self_ns"] = per_call(K::server);
  layers["capability.self_ns"] = per_call(K::capability);
  layers["capability.ns_per_kib"] = ratio(
      per_call(K::capability), ratio(traced.payload_bytes, traced_calls) / 1024.0);
  layers["wire.encode.self_ns"] = per_call(K::encode);
  layers["wire.decode.self_ns"] = per_call(K::decode);
  layers["transport.self_ns"] = per_call(K::transport);
  layers["servant.self_ns"] = per_call(K::servant);
  layers["trace.coverage"] = ratio(attributed.total_ns, traced.latency_ns);
  layers["trace.unattributed_ns"] =
      ratio(traced.latency_ns - attributed.total_ns, traced_calls);
  layers["trace.overhead_ratio"] =
      ratio(traced.calls_per_s(), plain.calls_per_s());
  layers["trace.dropped"] = static_cast<double>(snapshot.dropped);
  if (snapshot.dropped != 0) {
    // A dropped span silently moves time between layers.
    std::fprintf(stderr, "layer pass: %llu spans dropped\n",
                 static_cast<unsigned long long>(snapshot.dropped));
  }
  w->check();

  std::string body = "{";
  for (const auto& [name, value] : layers) {
    if (body.size() > 1) body += ",";
    body += json_string(name) + ":" + json_number(value);
  }
  body += "}";
  std::printf(
      "%s\n",
      JsonLine()
          .str("workload", opt.workload)
          .num("calls", static_cast<double>(plain.calls + traced.calls))
          .num("failed", static_cast<double>(w->failures()))
          .num("p99_samples", static_cast<double>(latency.count()))
          .num("traced_calls", traced_calls)
          .num("spans", static_cast<double>(snapshot.spans.size()))
          .raw("errors", errors_json(*w))
          .raw("layers", body)
          .done()
          .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ohpx_bench --workload NAME --cpus G,O [--seed N]"
               " [--round R]\n"
               "                  [--measure-s S] [--layers]\n"
               "       ohpx_bench --self-test\n"
               "workloads: shm_small cap_bulk tcp_fanin xproc_failover "
               "fig4_migrate\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--self-test") {
      opt.self_test = true;
    } else if (flag == "--layers") {
      opt.layers = true;
    } else if (value == nullptr) {
      return usage();
    } else if (flag == "--workload") {
      opt.workload = argv[++i];
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--round") {
      opt.round = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--measure-s") {
      opt.measure_s = std::strtod(argv[++i], nullptr);
    } else if (flag == "--cpus") {
      if (std::sscanf(argv[++i], "%d,%d", &opt.generator_cpu,
                      &opt.orb_cpu) != 2) {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (opt.self_test) return self_test();
  if (opt.generator_cpu < 0 || opt.orb_cpu < 0 ||
      std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
          kWorkloads.end()) {
    return usage();
  }
  // Set-up runs on the ORB's CPU, before any thread or daemon exists, so
  // all of them inherit it; place_threads() then moves the generator.
  if (!pin_thread(0, opt.orb_cpu)) {
    std::fprintf(stderr, "ohpx_bench: cannot pin to cpu %d\n", opt.orb_cpu);
    return 1;
  }
  try {
    return opt.layers ? run_layers(opt) : run_round(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ohpx_bench %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::run(argc, argv); }
