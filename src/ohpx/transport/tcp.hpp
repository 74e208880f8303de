// The real TCP transport's stream framing and its accepting side, built
// directly on the POSIX socket API.  Stream framing: u32 big-endian
// payload length + payload.  Both ends receive through one FrameReader:
// the TcpListener below parses requests with it, and the epoll reactor
// (reactor.hpp), which carries every outbound call, parses replies with
// it; the one frame cap lives there.  The accepting side is one Listener,
// shared with the introspection plane's HttpListener (http.hpp).  Frames
// exist only here, on the wire: the in-process bearers hand the server a
// header and body (inproc.hpp), and the benchmark suite's netsim-timed
// calls go that way so results are deterministic (DESIGN.md §2).
// Listeners default to loopback but can bind any local interface, which
// is what lets a World span OS processes and machines
// (docs/deployment.md).
#pragma once

#include <netinet/in.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/bytes.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/buffer.hpp"

namespace ohpx::transport {

/// Server-side frame handler: consumes one request frame, produces the
/// reply frame.  The request is a view into the connection's FrameReader,
/// valid only during the call.  Must be thread-safe; may be invoked
/// concurrently.
using FrameHandler = std::function<wire::Buffer(BytesView)>;

/// Every frame on a TCP stream is preceded by its length as a u32
/// big-endian prefix of this many bytes.
inline constexpr std::size_t kFramePrefixSize = 4;

/// Writes the length prefix of a `size`-byte frame.
void store_frame_prefix(std::uint8_t* prefix, std::uint32_t size) noexcept;

/// Receive side of the length-prefixed framing, one per connection.
/// fill() recvs into uninitialised spare room; next() hands out each
/// complete frame as a view into the buffer.  A partial frame moves to the
/// front only when the buffer has no spare room left, and the buffer grows
/// only for a frame larger than it (doubling, up to the frame's size), so
/// a stream of small frames never allocates after the first fill.
class FrameReader {
 public:
  /// A prefix above this drops the connection: the stream is not ohpx
  /// framing, and cannot be resynchronised.
  static constexpr std::size_t kMaxFrameSize = std::size_t{256} << 20;
  /// The most one recv asks for, and the buffer's starting size.
  static constexpr std::size_t kReadChunk = std::size_t{256} << 10;

  /// One recv of up to kReadChunk bytes from `fd`, retrying EINTR: the
  /// byte count, 0 at EOF, or -1 with errno set (EAGAIN on a drained
  /// nonblocking socket).  Invalidates views from earlier next() calls.
  ssize_t fill(int fd);

  /// The next complete frame, or nullopt when the buffer ends inside one.
  /// Throws TransportError(transport_io) on a prefix above kMaxFrameSize.
  std::optional<BytesView> next();

  /// Bytes received but not yet handed out: nonzero at EOF means the
  /// peer closed mid-frame.
  std::size_t buffered() const noexcept { return end_ - begin_; }

 private:
  void make_room();

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  // first byte not yet handed out
  std::size_t end_ = 0;    // one past the last received byte
};

/// Resolves `host` to an IPv4 address: dotted-quad fast path, getaddrinfo
/// fallback for names ("localhost", machine names).  "" and "0.0.0.0" map
/// to INADDR_ANY (listeners bind every interface).  Throws
/// TransportError(transport_connect_failed) for unresolvable hosts.
in_addr resolve_ipv4(const std::string& host);

/// Gather-writes every byte of `iov[0, iov_count)` to the blocking socket
/// `fd`, resuming after short sends (the iovecs are consumed).  sendmsg
/// with MSG_NOSIGNAL: a dead peer throws TransportError(transport_io)
/// instead of raising a process-killing SIGPIPE.
void sendmsg_full(int fd, iovec* iov, std::size_t iov_count);

/// The accepting side every listener shares: binds `host`:`port` (port 0 =
/// ephemeral, host "" / "0.0.0.0" = all interfaces) with SO_REUSEADDR and a
/// SOMAXCONN backlog, accepts on its own thread, and runs `serve` for each
/// connection on a thread of its own.  However `serve` leaves, the fd is
/// deregistered and closed; a TransportError is dropped quietly, any other
/// exception is logged.  Finished threads are joined on the next accept.
class Listener {
 public:
  /// One connection's protocol; the Listener owns and closes `fd`.
  using ConnectionFn = std::function<void(int fd)>;

  Listener(const std::string& host, std::uint16_t port, ConnectionFn serve);
  ~Listener() { stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actual bound port (useful with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// True once stop() has begun.
  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Stops accepting, shuts every open connection down (its thread reads
  /// EOF) and joins every thread.  Idempotent.
  void stop();

 private:
  void accept_loop();
  void run_connection(int fd);
  void reap_finished_locked() OHPX_REQUIRES(workers_mutex_);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ConnectionFn serve_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  sync::Mutex workers_mutex_{"transport.listener.workers"};
  std::vector<std::thread> workers_ OHPX_GUARDED_BY(workers_mutex_);
  std::set<int> open_connections_ OHPX_GUARDED_BY(workers_mutex_);
  std::vector<std::thread::id> finished_ OHPX_GUARDED_BY(workers_mutex_);
};

/// Frame server on a Listener: dispatches each frame of a connection into
/// `handler`, which runs on that connection's thread.  Each request is
/// handed over as the view the connection's FrameReader read it into;
/// nothing is copied.
class TcpListener {
 public:
  TcpListener(std::uint16_t port, FrameHandler handler);
  TcpListener(const std::string& host, std::uint16_t port,
              FrameHandler handler);
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The actual bound port (useful with port 0).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Stops accepting and joins all threads.  Idempotent.
  void stop() { listener_.stop(); }

 private:
  void serve_connection(int fd);

  FrameHandler handler_;
  Listener listener_;  // last: destroyed first, joining every handler call
};

}  // namespace ohpx::transport
