#include "ohpx/transport/reactor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ohpx/common/error.hpp"
#include "ohpx/common/log.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::transport {
namespace {

// Flush budget: at most this many frames / bytes per sendmsg batch, so one
// destination's long queue cannot starve the loop.
constexpr std::size_t kMaxBatchFrames = 256;
constexpr std::size_t kMaxBatchBytes = 256u << 10;
// Loop tick granularity while calls with deadlines are pending — the upper
// bound on how late a deadline cancellation fires.
constexpr int kPollGranularityMs = 5;

std::exception_ptr make_transport_error(ErrorCode code,
                                        const std::string& message) {
  return std::make_exception_ptr(TransportError(code, message));
}

}  // namespace

// ---- lifecycle -------------------------------------------------------------

Reactor::Reactor() {
  // Resolve handles before the loop thread exists: MetricsRegistry::global()
  // is thereby constructed before this Reactor and outlives it.  The same
  // ordering argument pins the flight recorder (and the anomaly counters
  // it interns) that the loop's anomalies feed.
  (void)introspect::FlightRecorder::global();
  auto& registry = metrics::MetricsRegistry::global();
  batches_ = registry.counter_handle(metrics::names::kReactorBatches);
  frames_ = registry.counter_handle(metrics::names::kReactorFrames);
  reconnects_ = registry.counter_handle(metrics::names::kReactorReconnects);
  inflight_gauge_ = registry.counter_handle(metrics::names::kReactorInflight);
  connections_gauge_ =
      registry.counter_handle(metrics::names::kReactorConnections);
  loop_lag_ = registry.latency_handle(metrics::names::kReactorLoopLag);
  batch_frames_ = registry.latency_handle(metrics::names::kReactorBatchFrames);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw TransportError(ErrorCode::transport_io,
                         std::string("epoll_create1: ") + std::strerror(errno));
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    throw TransportError(ErrorCode::transport_io,
                         std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wakeup eventfd
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  thread_ = std::thread([this] { loop(); });
}

Reactor::~Reactor() {
  stop();
  ::close(event_fd_);
  ::close(epoll_fd_);
}

void Reactor::stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  {
    sync::LockGuard lock(mutex_);
    stopping_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

Reactor& Reactor::global() {
  static Reactor instance;
  return instance;
}

// ---- submit (caller thread) ------------------------------------------------

void Reactor::wake() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(event_fd_, &one, sizeof(one));  // EAGAIN = already armed
}

Future<RawReply> Reactor::submit(const std::string& host, std::uint16_t port,
                                 const wire::MessageHeader& header,
                                 BytesView payload) {
  const std::int64_t deadline = resilience::current_deadline_ns();
  if (resilience::deadline_expired(deadline)) {
    throw DeadlineExceeded("deadline exceeded before transport send");
  }

  Promise<RawReply> promise;

  // Encode before taking the reactor mutex: the loop thread holds it for
  // whole processing passes, so every cycle spent under it by a submitter
  // is a lock handoff waiting to happen.  A window-full refusal wastes
  // this encode — acceptable for the exceptional path.
  wire::MessageHeader stamped = header;
  stamped.flags |= wire::kFlagCorrelation;
  stamped.correlation_id =
      next_correlation_.fetch_add(1, std::memory_order_relaxed);
  OutFrame out;
  wire::encode_frame_into(out.frame, stamped, payload);
  store_frame_prefix(out.prefix,
                     static_cast<std::uint32_t>(out.frame.size()));

  bool window_full = false;
  std::size_t window_now = 0;
  {
    sync::LockGuard lock(mutex_);
    if (stopping_) {
      throw TransportError(ErrorCode::transport_closed, "reactor stopped");
    }
    auto& slot = conns_[{host, port}];
    if (!slot) {
      slot = std::make_unique<Connection>();
      slot->host = host;
      slot->port = port;
      slot->inflight.reserve(window_.load(std::memory_order_relaxed));
    }
    Connection& conn = *slot;
    window_now = window_.load(std::memory_order_relaxed);
    if (conn.inflight.size() >= window_now) {
      window_full = true;  // refuse outside the lock
    } else {
      conn.outq.push_back(std::move(out));

      Pending pending;
      pending.promise = promise;
      pending.deadline_ns = deadline;
      conn.inflight.emplace(stamped.correlation_id, std::move(pending));
      if (deadline != resilience::kNoDeadline) ++conn.deadline_count;
      submit_seq_.fetch_add(1, std::memory_order_seq_cst);
    }
  }
  if (window_full) {
    const std::string refused = "inflight window full (" +
                                std::to_string(window_now) + ") for " +
                                host + ":" + std::to_string(port);
    introspect::anomaly(introspect::EventKind::backpressure,
                        ErrorCode::backpressure, refused);
    throw TransportError(ErrorCode::backpressure, refused);
  }
  // Wake elision: while the loop is awake it services submissions at the
  // end of its tick anyway, so the eventfd write (a syscall per call under
  // fan-in) is only needed to interrupt an epoll_wait.
  if (asleep_.load(std::memory_order_seq_cst)) wake();
  return promise.future();
}

void Reactor::set_inflight_window(std::size_t window) noexcept {
  window_.store(window == 0 ? 1 : window, std::memory_order_relaxed);
}

std::size_t Reactor::inflight_window() const noexcept {
  return window_.load(std::memory_order_relaxed);
}

void Reactor::set_stall_threshold(Nanoseconds threshold) noexcept {
  stall_threshold_.store(threshold.count(), std::memory_order_relaxed);
}

Nanoseconds Reactor::stall_threshold() const noexcept {
  return Nanoseconds(stall_threshold_.load(std::memory_order_relaxed));
}

std::vector<Reactor::ConnectionStats> Reactor::connection_stats() const {
  std::vector<ConnectionStats> out;
  sync::LockGuard lock(mutex_);
  for (const auto& [key, conn] : conns_) {
    ConnectionStats stats;
    stats.host = conn->host;
    stats.port = conn->port;
    stats.inflight = conn->inflight.size();
    stats.queued = conn->outq.size();
    stats.connected = conn->fd >= 0 && !conn->connecting;
    stats.reconnects = conn->reconnects;
    out.push_back(std::move(stats));
  }
  return out;
}

void Reactor::poke() noexcept { wake(); }

// ---- event loop ------------------------------------------------------------

void Reactor::loop() {
  std::vector<epoll_event> events(64);
  std::vector<Settlement> settled;
  std::uint64_t serviced_seq = 0;

  for (;;) {
    int timeout_ms = -1;
    bool exiting = false;
    {
      sync::LockGuard lock(mutex_);
      if (stopping_) {
        // Drain: every queued or awaiting call fails closed, connections
        // close, and the thread exits after settling outside the lock.
        for (auto& [key, conn] : conns_) {
          fail_connection(*conn, ErrorCode::transport_closed,
                          "reactor stopped", settled);
        }
        conns_.clear();
        exiting = true;
      } else {
        for (const auto& [key, conn] : conns_) {
          if (conn->deadline_count > 0) {
            timeout_ms = kPollGranularityMs;
            break;
          }
        }
      }
    }
    if (exiting) {
      inflight_gauge_->store(0, std::memory_order_relaxed);
      connections_gauge_->store(0, std::memory_order_relaxed);
      for (auto& s : settled) s.settle();
      settled.clear();
      return;
    }

    // Sleep decision (Dekker handshake with submit): declare intent to
    // sleep, then re-check for submissions that raced the declaration —
    // they saw asleep == false and skipped the eventfd, so poll instead
    // of parking.
    asleep_.store(true, std::memory_order_seq_cst);
    if (submit_seq_.load(std::memory_order_seq_cst) != serviced_seq) {
      timeout_ms = 0;
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    asleep_.store(false, std::memory_order_seq_cst);
    if (n < 0 && errno != EINTR) {
      log_warn("reactor", "epoll_wait failed: ", std::strerror(errno));
      return;
    }

    // Loop-lag sample: everything from here to the end of settlement is
    // time this tick kept the loop busy — time parked in epoll_wait never
    // counts.  note_tick_lag() feeds the histogram and the stall watchdog.
    Stopwatch tick_watch;
    std::size_t inflight_now = 0;
    std::size_t connections_now = 0;

    {
      sync::LockGuard lock(mutex_);
      for (int i = 0; i < (n < 0 ? 0 : n); ++i) {
        if (events[i].data.ptr == nullptr) {
          std::uint64_t drained = 0;
          [[maybe_unused]] ssize_t r =
              ::read(event_fd_, &drained, sizeof(drained));
          continue;
        }
        auto* conn = static_cast<Connection*>(events[i].data.ptr);
        if (conn->fd < 0) continue;  // failed earlier in this batch
        const std::uint32_t ev = events[i].events;
        if (conn->connecting && (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
          finish_connect(*conn, settled);
          continue;
        }
        if (ev & EPOLLIN) read_ready(*conn, settled);
        if (conn->fd >= 0 && (ev & EPOLLOUT)) flush(*conn, settled);
        if (conn->fd >= 0 && (ev & (EPOLLERR | EPOLLHUP))) {
          fail_connection(*conn, ErrorCode::transport_closed,
                          "connection reset", settled);
        }
      }
      // Everything enqueued up to this point (we hold the reactor mutex, and
      // submit bumps the sequence inside it) is serviced by this pass.
      serviced_seq = submit_seq_.load(std::memory_order_relaxed);
      service_submissions(settled);
      cancel_expired(settled);

      // Reap connections that failed during this tick (fd already closed;
      // the record only lingered so epoll_event pointers stayed valid).
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->fd < 0 && it->second->inflight.empty() &&
            it->second->outq.empty()) {
          it = conns_.erase(it);
        } else {
          inflight_now += it->second->inflight.size();
          ++connections_now;
          ++it;
        }
      }
    }
    // Gauges: store(), not fetch_add — at most one tick stale.
    inflight_gauge_->store(inflight_now, std::memory_order_relaxed);
    connections_gauge_->store(connections_now, std::memory_order_relaxed);
    for (auto& s : settled) s.settle();
    settled.clear();
    note_tick_lag(tick_watch.elapsed());
  }
}

// Stall watchdog: a tick that kept the loop busy past the threshold means
// every other connection waited that long for service — the
// reactor-side equivalent of a blocked event loop.  Cheap path first: the
// histogram record is three relaxed adds, the threshold probe one load.
void Reactor::note_tick_lag(Nanoseconds lag) {
  loop_lag_->record(lag);
  const std::int64_t threshold =
      stall_threshold_.load(std::memory_order_relaxed);
  if (threshold <= 0 || lag.count() < threshold) return;
  introspect::anomaly(
      introspect::EventKind::stall, ErrorCode::ok,
      "reactor loop lag " + std::to_string(lag.count() / 1000) + " us");
  // Dump once per process: the first stall is the interesting one, and a
  // stalling loop must not amplify itself by rendering the ring per tick.
  bool expected = false;
  if (stall_dump_logged_.compare_exchange_strong(expected, true)) {
    log_warn("reactor", "event-loop stall: tick took ",
             lag.count() / 1000, " us (threshold ", threshold / 1000,
             " us)\n", introspect::FlightRecorder::global().dump());
  }
}

// Gives every connection with staged work a socket and a flush: called
// once per tick, so frames submitted while the loop was busy leave in one
// coalesced batch (flush-on-idle).
void Reactor::service_submissions(std::vector<Settlement>& out) {
  for (auto& [key, conn] : conns_) {
    if (conn->outq.empty()) continue;
    if (conn->fd < 0) {
      open_connection(*conn, out);
      if (conn->fd < 0 || conn->connecting) continue;
    }
    if (!conn->connecting && !conn->want_write) {
      flush(*conn, out);
    }
  }
}

void Reactor::open_connection(Connection& conn,
                              std::vector<Settlement>& out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    fail_connection(conn, ErrorCode::transport_connect_failed,
                    std::string("socket: ") + std::strerror(errno), out);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(conn.port);
  try {
    addr.sin_addr = resolve_ipv4(conn.host);
  } catch (const TransportError& e) {
    ::close(fd);
    fail_connection(conn, ErrorCode::transport_connect_failed,
                    e.what(), out);
    return;
  }
  conn.fd = fd;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      fail_connection(conn, ErrorCode::transport_connect_failed,
                      std::string("connect: ") + std::strerror(errno), out);
      return;
    }
    conn.connecting = true;
  }
  if (!conn.connecting) note_connected(conn);  // loopback connect can
                                               // complete synchronously
  update_interest(conn, /*want_write=*/conn.connecting);
}

void Reactor::note_connected(Connection& conn) noexcept {
  if (conn.ever_connected) {
    ++conn.reconnects;
    reconnects_->fetch_add(1, std::memory_order_relaxed);
  }
  conn.ever_connected = true;
}

void Reactor::finish_connect(Connection& conn,
                             std::vector<Settlement>& out) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    err = errno;
  }
  if (err != 0) {
    fail_connection(conn, ErrorCode::transport_connect_failed,
                    std::string("connect: ") + std::strerror(err), out);
    return;
  }
  conn.connecting = false;
  note_connected(conn);
  update_interest(conn, /*want_write=*/false);
  flush(conn, out);
}

// Drains the outbound queue in gather-write batches.  Each sendmsg carries
// up to kMaxBatchFrames (prefix, frame) iovec pairs within
// kMaxBatchBytes (flush-on-budget); a short write advances out_offset
// into the front entry, EAGAIN arms EPOLLOUT and yields.
void Reactor::flush(Connection& conn,
                    std::vector<Settlement>& out) {
  while (!conn.outq.empty()) {
    iovec iov[512];
    std::size_t iov_count = 0;
    std::size_t batch_bytes = 0;
    std::size_t batch_frames = 0;
    std::size_t skip = conn.out_offset;
    for (auto it = conn.outq.begin();
         it != conn.outq.end() && batch_frames < kMaxBatchFrames &&
         iov_count + 2 <= 512 && batch_bytes < kMaxBatchBytes;
         ++it, ++batch_frames) {
      const std::uint8_t* prefix = it->prefix;
      std::size_t prefix_len = kFramePrefixSize;
      const std::uint8_t* body = it->frame.data();
      std::size_t body_len = it->frame.size();
      if (skip > 0) {  // only ever nonzero for the front entry
        const std::size_t prefix_skip = std::min(skip, prefix_len);
        prefix += prefix_skip;
        prefix_len -= prefix_skip;
        const std::size_t body_skip = skip - prefix_skip;
        body += body_skip;
        body_len -= body_skip;
        skip = 0;
      }
      if (prefix_len > 0) {
        iov[iov_count].iov_base = const_cast<std::uint8_t*>(prefix);
        iov[iov_count].iov_len = prefix_len;
        ++iov_count;
      }
      if (body_len > 0) {
        iov[iov_count].iov_base = const_cast<std::uint8_t*>(body);
        iov[iov_count].iov_len = body_len;
        ++iov_count;
      }
      batch_bytes += prefix_len + body_len;
    }
    if (iov_count == 0) {  // fully-sent front entry (should not persist)
      conn.outq.pop_front();
      conn.out_offset = 0;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        update_interest(conn, /*want_write=*/true);
        return;
      }
      fail_connection(conn, ErrorCode::transport_io,
                      std::string("sendmsg: ") + std::strerror(errno), out);
      return;
    }
    batches_->fetch_add(1, std::memory_order_relaxed);
    // Batch-size histogram, encoded 1 us per frame so the log2 buckets
    // read as frame-count bands (1, 2-3, 4-7, ... frames per sendmsg).
    batch_frames_->record(
        Nanoseconds(static_cast<std::int64_t>(batch_frames) * 1000));
    std::size_t sent = static_cast<std::size_t>(n);
    conn.out_offset += sent;
    while (!conn.outq.empty()) {
      const std::size_t entry_size =
          kFramePrefixSize + conn.outq.front().frame.size();
      if (conn.out_offset < entry_size) break;
      conn.out_offset -= entry_size;
      // Fully on the wire: recycle the frame allocation through this
      // thread's pool, where demux_replies' reply-body acquisitions pick
      // it right back up.
      wire::BufferPool::local().release(std::move(conn.outq.front().frame));
      conn.outq.pop_front();
      frames_->fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (conn.want_write) update_interest(conn, /*want_write=*/false);
}

// Settles the pending call each complete reply frame in conn.reader
// correlates to.  Replies whose call was already cancelled (deadline)
// demux to nothing and are dropped.  Returns false when the connection
// was failed: an over-cap prefix or a corrupt frame leaves a byte stream
// that cannot be resynchronised.
bool Reactor::demux_replies(Connection& conn,
                            std::vector<Settlement>& out) {
  try {
    while (const std::optional<BytesView> frame = conn.reader.next()) {
      BytesView body;
      const wire::MessageHeader header = wire::decode_frame(*frame, body);
      if (!header.has_correlation()) {
        log_warn("reactor", "reply without correlation id dropped");
        continue;
      }
      const auto it = conn.inflight.find(header.correlation_id);
      if (it == conn.inflight.end()) continue;  // call already cancelled
      // Copy only the body out of the read buffer, and only for a call
      // that still wants the reply — a cancelled call's reply costs zero
      // allocations.  The body buffer comes from this thread's pool: the
      // stub's decode continuation runs on this same loop thread and
      // releases the payload back, so steady-state fan-in recycles a
      // handful of warm buffers instead of allocating per reply.
      Settlement s;
      s.promise = std::move(it->second.promise);
      s.reply.header = header;
      s.reply.frame_size = frame->size();
      s.reply.payload = wire::BufferPool::local().acquire(body.size());
      s.reply.payload.append(body);
      if (it->second.deadline_ns != resilience::kNoDeadline) {
        --conn.deadline_count;
      }
      conn.inflight.erase(it);
      out.push_back(std::move(s));
    }
  } catch (const TransportError& e) {
    fail_connection(conn, e.code(), e.what(), out);
    return false;
  } catch (const WireError& e) {
    fail_connection(conn, ErrorCode::transport_io,
                    std::string("corrupt reply frame: ") + e.what(), out);
    return false;
  }
  return true;
}

// Reads until EAGAIN — one recv covers many pipelined replies — settling
// replies after each chunk.
void Reactor::read_ready(Connection& conn,
                         std::vector<Settlement>& out) {
  for (;;) {
    const ssize_t n = conn.reader.fill(conn.fd);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail_connection(conn, ErrorCode::transport_io,
                      std::string("recv: ") + std::strerror(errno), out);
      return;
    }
    if (n == 0) {
      fail_connection(conn, ErrorCode::transport_closed,
                      conn.reader.buffered() == 0
                          ? "connection closed"
                          : "connection closed mid-frame",
                      out);
      return;
    }
    if (!demux_replies(conn, out)) return;
  }
}

// Fails every pending call on `conn` and closes its socket.  The record
// stays in the map (fd = -1) until the end of the tick so epoll_event
// pointers from this batch remain valid; a later submit() reuses it.
void Reactor::fail_connection(Connection& conn, ErrorCode code,
                              const std::string& message,
                              std::vector<Settlement>& out) {
  const std::string described =
      "tcp " + conn.host + ":" + std::to_string(conn.port) + ": " + message;
  const std::exception_ptr error = make_transport_error(code, described);
  // Cold path by definition (the connection just died): one anomaly per
  // failure, not per pending call.
  introspect::anomaly(introspect::EventKind::connection_dropped, code,
                      described);
  for (auto& [corr, pending] : conn.inflight) {
    Settlement s;
    s.promise = std::move(pending.promise);
    s.error = error;
    out.push_back(std::move(s));
  }
  conn.inflight.clear();
  conn.deadline_count = 0;
  conn.outq.clear();
  conn.out_offset = 0;
  conn.reader = FrameReader{};
  if (conn.fd >= 0) {
    if (conn.registered) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    }
    ::close(conn.fd);
  }
  conn.fd = -1;
  conn.connecting = false;
  conn.registered = false;
  conn.want_write = false;
}

// Deadline sweep on the resilience clock (ManualClock-compatible): any
// pending call whose deadline has passed settles with DeadlineExceeded.
// The reply may still arrive; it then finds no inflight entry and is
// dropped — settlement stays once-only either way.
void Reactor::cancel_expired(std::vector<Settlement>& out) {
  bool any = false;
  for (const auto& [key, conn] : conns_) {
    if (conn->deadline_count > 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  std::size_t cancelled = 0;
  const std::int64_t now = resilience::now_ns();
  for (auto& [key, conn] : conns_) {
    if (conn->deadline_count == 0) continue;
    for (auto it = conn->inflight.begin(); it != conn->inflight.end();) {
      if (it->second.deadline_ns != resilience::kNoDeadline &&
          now >= it->second.deadline_ns) {
        Settlement s;
        s.promise = std::move(it->second.promise);
        s.error = std::make_exception_ptr(
            DeadlineExceeded("deadline exceeded awaiting reply"));
        out.push_back(std::move(s));
        ++cancelled;
        --conn->deadline_count;
        it = conn->inflight.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (cancelled > 0) {
    introspect::anomaly(introspect::EventKind::deadline_sweep,
                        ErrorCode::deadline_exceeded,
                        "reactor cancelled " + std::to_string(cancelled) +
                            " call(s) past deadline",
                        cancelled);
  }
}

void Reactor::update_interest(Connection& conn,
                              bool want_write) {
  if (conn.registered && conn.want_write == want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = &conn;
  const int op = conn.registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, conn.fd, &ev) < 0) {
    log_warn("reactor", "epoll_ctl failed: ", std::strerror(errno));
  }
  conn.registered = true;
  conn.want_write = want_write;
}

}  // namespace ohpx::transport
