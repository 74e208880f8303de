// Event-driven TCP transport: one epoll loop owns every outbound
// connection, so a single client thread can keep thousands of calls in
// flight, and a sync caller may lead an idle connection for the length of
// its own call.  It is the only TCP client path.
//
// Shape of the machine (DESIGN-level summary; docs/transport.md has the
// full walkthrough):
//
//   - submit() runs on the caller's thread: it stamps a correlation id
//     into the frame header (wire extension kFlagCorrelation), encodes the
//     frame, queues it on the destination's connection, registers a
//     Promise under that id, pokes the loop through an eventfd, and
//     returns the Future.  No socket syscall happens on an async caller.
//
//   - exchange() is the sync call (Leader/Followers, Schmidt et al.).
//     When the destination's connection is connected and idle — nothing
//     queued, nothing awaiting a reply, no leader — the calling thread
//     leads it: it registers its call, sends its own frame, and polls the
//     socket, reading through the connection's FrameReader and settling
//     every reply it reads (another caller's too) until its own settles;
//     then it hands the connection back.  Two thread handoffs per call,
//     as in a bare ping-pong, instead of four.  Otherwise it submits and
//     waits on the future.
//
//   - the loop thread owns all other I/O.  Queued frames to the same
//     destination coalesce into one sendmsg gather write (up to 256
//     frames / 256 KiB per syscall) — flush-on-idle: whatever accumulated
//     while the loop was busy goes out in one batch; flush-on-budget: a
//     long queue is cut into budget-sized syscalls so one destination
//     cannot starve the loop.  Replies demultiplex by the echoed
//     correlation id, in whatever order the server produces them.  The
//     loop never reads a led connection: the first reply that wakes it
//     there drops the read interest, so a sync-only connection costs no
//     epoll_ctl per call; the loop takes reading back when an async
//     submit or a waiting sync call needs it.
//
//   - every connection carries a bounded inflight window (queued + on the
//     wire, awaiting reply).  A submit() into a full window is refused
//     *synchronously* with ErrorCode::backpressure before any byte moves —
//     the one transport error that is always safe to retry and must never
//     trip a breaker (see resilience/retry.cpp and orb/invocation.cpp).
//
//   - deadlines cancel futures: each pending call remembers the ambient
//     deadline at submit time; the loop scans pending deadlines every tick
//     (a 5 ms epoll timeout while any exist) on the *resilience* clock,
//     so ManualClock-driven tests work — advance the clock, poke(), and
//     the future settles with DeadlineExceeded.  A leader whose call has
//     a deadline polls at the same 5 ms granularity and runs the same
//     sweep.  A reply racing the cancellation loses: settlement is
//     once-only (ohpx::Future).
//
// The peer is a TcpListener (tcp.hpp) speaking the same length-prefixed
// framing, and replies are parsed by the same FrameReader the listener
// parses requests with: it recvs into uninitialised room and owns the one
// frame cap.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/bytes.hpp"
#include "ohpx/common/future.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::transport {

/// A reply as the reactor settles it: decoded exactly once, on the loop
/// thread.  The demultiplexer must decode every frame anyway to read the
/// echoed correlation id, so handing the caller the raw bytes would force
/// a second decode — and a second CRC pass — per call (under fan-in that
/// was ~half the crc32 work of the whole client).  The alias makes it the
/// same type the protocol layer calls ReplyMessage: the tcp async path
/// passes the settled future upward with no per-layer repack stage.
using RawReply = wire::ReplyEnvelope;

class Reactor {
 public:
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Process-wide reactor the tcp protocol submits every call to.
  static Reactor& global();

  /// Queues one call to host:port.  Stamps a fresh correlation id (the
  /// caller's header must not carry one), captures the thread-ambient
  /// deadline for cancellation, and returns a future settling with the
  /// decoded reply (header + body — the loop thread already decoded the
  /// frame to demultiplex, so the caller never re-parses bytes).
  ///
  /// Throws synchronously: DeadlineExceeded when the ambient deadline has
  /// already passed, TransportError(backpressure) when the destination's
  /// inflight window is full (nothing was queued — retry after backoff).
  Future<RawReply> submit(const std::string& host, std::uint16_t port,
                          const wire::MessageHeader& header,
                          BytesView payload);

  /// The sync call: submit()'s contract and refusals, but it returns the
  /// reply or throws the error the call settled with.  When the
  /// destination's connection is connected and idle, the calling thread
  /// leads it (see the file comment); otherwise it submits and waits.
  RawReply exchange(const std::string& host, std::uint16_t port,
                    const wire::MessageHeader& header, BytesView payload);

  /// Per-connection inflight window (default 1024): queued + awaiting-reply
  /// calls beyond it are refused with ErrorCode::backpressure.  Tests
  /// shrink it to force backpressure.
  void set_inflight_window(std::size_t window) noexcept;
  std::size_t inflight_window() const noexcept;

  /// Stall watchdog (default 500 ms; 0 disables): a loop tick whose
  /// processing time — everything between an epoll_wait return and the
  /// next sleep decision, never time parked in epoll_wait — reaches the
  /// threshold bumps rmi.reactor.stall and drops a flight-recorder entry;
  /// the first stall also logs a full recorder dump.  Tests shrink it to
  /// force a stall.
  void set_stall_threshold(Nanoseconds threshold) noexcept;
  Nanoseconds stall_threshold() const noexcept;

  /// Point-in-time health of one connection, for the introspection plane.
  struct ConnectionStats {
    std::string host;
    std::uint16_t port = 0;
    std::size_t inflight = 0;    // queued + awaiting reply
    std::size_t queued = 0;      // frames not yet fully on the wire
    bool connected = false;      // socket open, handshake complete
    std::uint64_t reconnects = 0;
  };

  /// Every live connection (order unspecified).
  std::vector<ConnectionStats> connection_stats() const;

  /// Wakes the loop for an immediate tick — after advancing a
  /// ManualClock, this makes deadline cancellation prompt instead of
  /// waiting out the poll granularity.
  void poke() noexcept;

  /// Fails all pending calls (transport_closed), closes every connection
  /// and joins the loop thread.  A socket a leader polls is shut down, not
  /// closed: its leader closes it, and stop() returns once every leader
  /// has handed its connection back.  Idempotent; the destructor calls it.
  void stop();

 private:
  // One call awaiting its reply (or still queued).
  struct Pending {
    Promise<RawReply> promise;
    std::int64_t deadline_ns = 0;  // resilience clock; 0 = unbounded
  };

  // An encoded frame staged for the wire: 4-byte big-endian length prefix
  // kept separate so the flush path gather-writes (prefix, frame) iovec
  // pairs without copying the frame behind a prefix.
  struct OutFrame {
    std::uint8_t prefix[kFramePrefixSize];
    wire::Buffer frame;
  };

  // One call between its caller and the wire: the frame staged on the
  // caller's thread, its correlation id, and the promise its reply
  // settles.
  struct Call {
    OutFrame out;
    std::uint64_t correlation = 0;
    Pending pending;
  };

  struct Connection {
    std::string host;
    std::uint16_t port = 0;
    int fd = -1;
    bool connecting = false;  // nonblocking connect() in progress
    bool registered = false;  // fd added to the epoll set
    bool want_read = false;   // EPOLLIN currently requested
    bool want_write = false;  // EPOLLOUT currently requested

    // The socket a sync caller leads (exchange()), or -1.  While it equals
    // fd the connection is led: only the leader reads it, and the loop
    // keeps the write half.  A connection failed under its leader is shut
    // down, not closed — fd moves on and leader_fd stays behind — so the
    // leader never polls a closed or reused descriptor; it closes the
    // socket itself when it hands the connection back.  The record is not
    // reaped while leader_fd >= 0.
    int leader_fd = -1;

    // Write side: frames not yet (fully) handed to the kernel.
    // out_offset = bytes of the front entry (prefix + frame) already sent.
    std::deque<OutFrame> outq;
    std::size_t out_offset = 0;

    // Read side: the framing's one receive buffer (tcp.hpp), shared with
    // the listener.  Each readable tick recvs big chunks and settles every
    // complete reply; a partial frame stays for the next tick.  One
    // syscall covers many replies under fan-in.
    FrameReader reader;

    // Reconnect bookkeeping: ever_connected marks the first successful
    // handshake, so later successes count as re-establishments.
    bool ever_connected = false;
    std::uint64_t reconnects = 0;

    // Correlation id -> pending call; its size *is* the inflight count the
    // window bounds.  Hashed, not ordered: at a 1k-deep window the
    // per-call find/insert/erase triple on a red-black tree was a
    // measurable slice of the demux cost.  deadline_count tracks entries
    // with a real deadline so idle ticks stay free when nothing can
    // expire.
    std::unordered_map<std::uint64_t, Pending> inflight;
    std::size_t deadline_count = 0;
  };

  // A settled call carried out of the locked region: promises are
  // fulfilled *after* the reactor mutex drops, so a continuation that
  // re-enters submit() cannot deadlock.  settle() moves the error into
  // the promise: the loop keeps no reference to a failed call's
  // exception, which then dies with its future state.  Built from the
  // pending call's promise: a default-constructed one would allocate a
  // future state only to drop it.
  struct Settlement {
    explicit Settlement(Promise<RawReply>&& pending)
        : promise(std::move(pending)) {}

    Promise<RawReply> promise;
    RawReply reply;                     // meaningful when !error
    std::exception_ptr error = nullptr;

    void settle() {
      if (error) {
        promise.set_exception(std::move(error));
      } else {
        promise.set_value(std::move(reply));
      }
    }
  };

  void wake() noexcept;
  Call stage(const wire::MessageHeader& header, BytesView payload);
  Connection& connection(const std::string& host, std::uint16_t port)
      OHPX_REQUIRES(mutex_);
  bool admit(Connection& conn, Call&& call) OHPX_REQUIRES(mutex_);
  [[noreturn]] void refuse_full(const std::string& host,
                                std::uint16_t port) const;
  void hand_back(Connection& conn, int fd) OHPX_REQUIRES(mutex_);
  void loop();
  void service_submissions(std::vector<Settlement>& out)
      OHPX_REQUIRES(mutex_);
  void open_connection(Connection& conn, std::vector<Settlement>& out)
      OHPX_REQUIRES(mutex_);
  void finish_connect(Connection& conn, std::vector<Settlement>& out)
      OHPX_REQUIRES(mutex_);
  void flush(Connection& conn, std::vector<Settlement>& out)
      OHPX_REQUIRES(mutex_);
  void read_ready(Connection& conn, std::vector<Settlement>& out,
                  std::uint64_t until = 0) OHPX_REQUIRES(mutex_);
  bool demux_replies(Connection& conn, std::vector<Settlement>& out)
      OHPX_REQUIRES(mutex_);
  void fail_connection(Connection& conn, ErrorCode code,
                       const std::string& message,
                       std::vector<Settlement>& out) OHPX_REQUIRES(mutex_);
  void cancel_expired(std::vector<Settlement>& out) OHPX_REQUIRES(mutex_);
  void set_interest(Connection& conn, bool want_read, bool want_write)
      OHPX_REQUIRES(mutex_);
  void note_connected(Connection& conn) noexcept;
  void note_tick_lag(Nanoseconds lag);

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  // Wake elision: submit() pays the eventfd write syscall only while the
  // loop is (about to be) parked in epoll_wait.  The loop publishes
  // asleep_=true immediately before sleeping and then re-checks
  // submit_seq_ (a Dekker handshake, both seq_cst): either the submitter
  // observes asleep_ and writes the eventfd, or the loop observes the new
  // sequence number and skips the sleep — a wakeup is never lost.
  std::atomic<bool> asleep_{false};
  std::atomic<std::uint64_t> submit_seq_{0};
  mutable sync::Mutex mutex_{"transport.reactor"};
  bool stopping_ OHPX_GUARDED_BY(mutex_) = false;
  std::map<std::pair<std::string, std::uint16_t>, std::unique_ptr<Connection>>
      conns_ OHPX_GUARDED_BY(mutex_);

  std::atomic<std::size_t> window_{1024};
  std::atomic<std::int64_t> stall_threshold_{500'000'000};
  std::atomic<bool> stall_dump_logged_{false};
  std::atomic<std::uint64_t> next_correlation_{1};
  std::atomic<bool> stopped_{false};

  // Resolved once in the constructor, which runs after (and therefore
  // destructs before) MetricsRegistry::global() — the loop thread may bump
  // these until stop() completes.
  metrics::MetricsRegistry::Counter* batches_ = nullptr;
  metrics::MetricsRegistry::Counter* frames_ = nullptr;
  metrics::MetricsRegistry::Counter* reconnects_ = nullptr;
  // Gauges (store(), not fetch_add): refreshed at the end of every tick.
  metrics::MetricsRegistry::Counter* inflight_gauge_ = nullptr;
  metrics::MetricsRegistry::Counter* connections_gauge_ = nullptr;
  // Histograms: per-tick loop lag (real time) and frames per sendmsg
  // batch (encoded as 1 us per frame — see flush()).
  metrics::LatencyHistogram* loop_lag_ = nullptr;
  metrics::LatencyHistogram* batch_frames_ = nullptr;

  // The loop thread, last: it uses every member above.
  std::thread thread_;
};

}  // namespace ohpx::transport
