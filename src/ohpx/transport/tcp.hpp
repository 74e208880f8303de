// The real TCP transport's stream framing and its accepting side, built
// directly on the POSIX socket API.  Stream framing: u32 big-endian
// payload length + payload.  Both ends receive through one FrameReader:
// the TcpListener below parses requests with it, and the epoll reactor
// (reactor.hpp), which carries every outbound call, parses replies with
// it; the one frame cap lives there.  The benchmark suite instead uses the
// netsim-timed channel so results are deterministic (DESIGN.md §2).
// Listeners default to loopback but can bind any local interface, which
// is what lets a World span OS processes and machines
// (docs/deployment.md).
#pragma once

#include <netinet/in.h>
#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/bytes.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/channel.hpp"

namespace ohpx::transport {

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

/// Accepting side: binds `host`:`port` (port 0 = ephemeral, host "" /
/// "0.0.0.0" = all interfaces), serves each connection on its own thread,
/// dispatching frames into `handler`.  Each request is copied out of the
/// connection's FrameReader into a buffer from the thread's BufferPool.
class TcpListener {
 public:
  TcpListener(std::uint16_t port, FrameHandler handler);
  TcpListener(const std::string& host, std::uint16_t port,
              FrameHandler handler);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The actual bound port (useful with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting and joins all threads.  Idempotent.
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_locked() OHPX_REQUIRES(workers_mutex_);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  FrameHandler handler_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  sync::Mutex workers_mutex_{"transport.tcp.workers"};
  std::vector<std::thread> workers_ OHPX_GUARDED_BY(workers_mutex_);
  std::set<int> open_connections_ OHPX_GUARDED_BY(workers_mutex_);
  std::vector<std::thread::id> finished_ OHPX_GUARDED_BY(workers_mutex_);
};

}  // namespace ohpx::transport
