#include "ohpx/transport/tcp.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ohpx/common/error.hpp"
#include "ohpx/common/log.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::transport {
namespace {

std::size_t load_frame_prefix(const std::uint8_t* p) noexcept {
  return (static_cast<std::size_t>(p[0]) << 24) |
         (static_cast<std::size_t>(p[1]) << 16) |
         (static_cast<std::size_t>(p[2]) << 8) | static_cast<std::size_t>(p[3]);
}

[[noreturn]] void throw_errno(ErrorCode code, const char* what) {
  throw TransportError(code, std::string(what) + ": " + std::strerror(errno));
}

// Gather-write of iovecs with full partial-write handling: a short send
// advances into the iovec array and retries until every byte is out.
// sendmsg (not writev) so MSG_NOSIGNAL applies — a dead peer must surface
// as EPIPE/transport_io, never as a process-killing SIGPIPE.
void sendmsg_full(int fd, iovec* iov, std::size_t iov_count) {
  while (iov_count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(ErrorCode::transport_io, "sendmsg");
    }
    while (iov_count > 0 && static_cast<std::size_t>(n) >= iov[0].iov_len) {
      n -= static_cast<ssize_t>(iov[0].iov_len);
      ++iov;
      --iov_count;
    }
    if (iov_count > 0 && n > 0) {
      iov[0].iov_base = static_cast<std::uint8_t*>(iov[0].iov_base) + n;
      iov[0].iov_len -= static_cast<std::size_t>(n);
    }
  }
}

/// One sendmsg per <=256 replies: gathered (prefix, frame) iovec pairs.
/// Under fan-in pipelining the handler produces bursts of replies between
/// blocking reads; coalescing them cuts the server's syscalls per call
/// from ~3 to ~2/batch, which is most of the fan-in speedup server-side.
void write_reply_batch(int fd, std::vector<wire::Buffer>& replies) {
  constexpr std::size_t kMaxBatch = 256;
  std::uint8_t prefixes[kMaxBatch][kFramePrefixSize];
  iovec iov[kMaxBatch * 2];
  std::size_t next = 0;
  while (next < replies.size()) {
    std::size_t iov_count = 0, batched = 0;
    for (; batched < kMaxBatch && next + batched < replies.size(); ++batched) {
      const wire::Buffer& reply = replies[next + batched];
      std::uint8_t* prefix = prefixes[batched];
      store_frame_prefix(prefix, static_cast<std::uint32_t>(reply.size()));
      iov[iov_count].iov_base = prefix;
      iov[iov_count].iov_len = kFramePrefixSize;
      ++iov_count;
      if (!reply.empty()) {
        iov[iov_count].iov_base = const_cast<std::uint8_t*>(reply.data());
        iov[iov_count].iov_len = reply.size();
        ++iov_count;
      }
    }
    sendmsg_full(fd, iov, iov_count);
    next += batched;
  }
  replies.clear();
}

}  // namespace

void store_frame_prefix(std::uint8_t* prefix, std::uint32_t size) noexcept {
  prefix[0] = static_cast<std::uint8_t>(size >> 24);
  prefix[1] = static_cast<std::uint8_t>(size >> 16);
  prefix[2] = static_cast<std::uint8_t>(size >> 8);
  prefix[3] = static_cast<std::uint8_t>(size);
}

// ---- FrameReader ---------------------------------------------------------
//
// The recv lands in room nobody has written.  Growing a std::vector by
// kReadChunk before each recv instead value-initialises the chunk: a sync
// call would zero-fill ~768 KiB across both ends to receive ~100 bytes
// (docs/transport.md, "Receive path").

ssize_t FrameReader::fill(int fd) {
  make_room();
  const std::size_t room = std::min(capacity_ - end_, kReadChunk);
  for (;;) {
    const ssize_t n = ::recv(fd, buf_.get() + end_, room, 0);
    if (n > 0) end_ += static_cast<std::size_t>(n);
    if (n >= 0 || errno != EINTR) return n;
  }
}

// An empty buffer rewinds for free.  Otherwise the recv lands in whatever
// room is left past end_, and only a full buffer does work: it moves the
// partial frame to the front or, when that frame is larger than the whole
// buffer, grows (doubling, capped at the frame's size, so a lying prefix
// costs no more than the bytes that actually arrive).
void FrameReader::make_room() {
  if (begin_ == end_) begin_ = end_ = 0;
  if (!buf_) {
    buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
    capacity_ = kReadChunk;
  }
  if (end_ < capacity_) return;
  const std::size_t pending = end_ - begin_;
  const std::size_t frame =
      pending >= kFramePrefixSize
          ? kFramePrefixSize + load_frame_prefix(buf_.get() + begin_)
          : 0;
  const std::size_t needed = std::max(frame, pending + 1);
  if (needed <= capacity_) {
    std::memmove(buf_.get(), buf_.get() + begin_, pending);
  } else {
    const std::size_t grown = std::min(needed, 2 * capacity_);
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(grown);
    std::memcpy(bigger.get(), buf_.get() + begin_, pending);
    buf_ = std::move(bigger);
    capacity_ = grown;
  }
  begin_ = 0;
  end_ = pending;
}

std::optional<BytesView> FrameReader::next() {
  const std::size_t pending = end_ - begin_;
  if (pending < kFramePrefixSize) return std::nullopt;
  const std::uint8_t* p = buf_.get() + begin_;
  const std::size_t size = load_frame_prefix(p);
  if (size > kMaxFrameSize) {
    throw TransportError(ErrorCode::transport_io, "frame exceeds size cap");
  }
  if (pending - kFramePrefixSize < size) return std::nullopt;
  begin_ += kFramePrefixSize + size;
  return BytesView(p + kFramePrefixSize, size);
}

in_addr resolve_ipv4(const std::string& host) {
  in_addr addr{};
  if (host.empty() || host == "0.0.0.0") {
    addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  if (::inet_pton(AF_INET, host.c_str(), &addr) == 1) {
    return addr;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    if (result) ::freeaddrinfo(result);
    throw TransportError(ErrorCode::transport_connect_failed,
                         "cannot resolve host '" + host +
                             "': " + ::gai_strerror(rc));
  }
  addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

// ---- TcpListener ---------------------------------------------------------

TcpListener::TcpListener(std::uint16_t port, FrameHandler handler)
    : TcpListener("127.0.0.1", port, std::move(handler)) {}

TcpListener::TcpListener(const std::string& host, std::uint16_t port,
                         FrameHandler handler)
    : handler_(std::move(handler)) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = resolve_ipv4(host);  // before socket(): a throw here
                                       // must not leak an fd
  addr.sin_port = htons(port);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno(ErrorCode::transport_io, "socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    throw_errno(ErrorCode::transport_io, "bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    ::close(listen_fd_);
    throw_errno(ErrorCode::transport_io, "getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    throw_errno(ErrorCode::transport_io, "listen");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpListener::~TcpListener() { stop(); }

void TcpListener::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;  // already stopped
  }
  // Shut the listening socket down to unblock accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> workers;
  {
    sync::LockGuard lock(workers_mutex_);
    workers.swap(workers_);
    finished_.clear();
    // Unblock workers parked in recv() on live connections; they observe
    // EOF, clean up their fd and exit.
    for (int fd : open_connections_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (auto& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

void TcpListener::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    sync::LockGuard lock(workers_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    reap_finished_locked();
    open_connections_.insert(fd);
    workers_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

// Joins workers whose connections have ended so a long-lived listener does
// not accumulate one joinable-but-finished thread per past connection.
// Joining under the lock is safe: a thread registers in finished_ as its
// last lock-holding act, so the join only waits for its final returns.
void TcpListener::reap_finished_locked() {
  for (const std::thread::id id : finished_) {
    const auto it =
        std::find_if(workers_.begin(), workers_.end(),
                     [id](const std::thread& t) { return t.get_id() == id; });
    if (it != workers_.end()) {
      it->join();
      workers_.erase(it);
    }
  }
  finished_.clear();
}

void TcpListener::serve_connection(int fd) {
  // Deregister-and-close exactly once, on *every* exit path.  Before this
  // guard, an exception that escaped the catch clauses below (anything not
  // derived from std::exception) unwound past the cleanup block: the fd
  // stayed in open_connections_ forever — stop() would then shutdown() a
  // number the kernel had recycled for an unrelated connection — and the
  // worker thread was never reaped.
  struct ConnectionGuard {
    TcpListener* listener;
    int fd;
    ~ConnectionGuard() {
      {
        sync::LockGuard lock(listener->workers_mutex_);
        listener->open_connections_.erase(fd);
        listener->finished_.push_back(std::this_thread::get_id());
      }
      ::close(fd);
    }
  } guard{this, fd};

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  try {
    // Buffered request pipeline: each blocking recv takes whatever burst
    // the client pipelined, every complete frame in the buffer is
    // dispatched, and the accumulated replies flush as one gathered
    // sendmsg before the next blocking read (flushing first is also what
    // prevents deadlock — the client may be waiting on these replies).
    // One call at a time still costs one recv + one send, exactly the old
    // behaviour; a reactor fan-in burst costs two syscalls per *batch*.
    FrameReader reader;
    std::vector<wire::Buffer> replies;
    wire::BufferPool& pool = wire::BufferPool::local();
    while (!stopping_.load(std::memory_order_relaxed)) {
      while (const std::optional<BytesView> frame = reader.next()) {
        // FrameHandler takes a wire::Buffer; the copy reuses a pooled
        // allocation instead of zero-filling a fresh one.
        wire::Buffer request = pool.acquire(frame->size());
        request.append(*frame);
        replies.push_back(handler_(request));
        pool.release(std::move(request));
      }
      if (!replies.empty()) write_reply_batch(fd, replies);

      const ssize_t n = reader.fill(fd);
      if (n < 0) throw_errno(ErrorCode::transport_io, "recv");
      if (n == 0) {
        if (reader.buffered() == 0) break;  // clean EOF at a frame boundary
        throw TransportError(ErrorCode::transport_closed,
                             "connection closed mid-frame");
      }
    }
  } catch (const TransportError&) {
    // Peer closed or I/O failed; drop the connection quietly.
  } catch (const std::exception& e) {
    log_warn("tcp", "connection handler error: ", e.what());
  } catch (...) {
    log_warn("tcp", "connection handler error: non-standard exception");
  }
}

}  // namespace ohpx::transport
