// Plain blocking loopback sockets for the framing and listener tests: the
// test plays one end of the length-prefixed TCP stream and writes it in
// whatever pieces it likes, so the other end's FrameReader sees split
// prefixes, many frames per recv, over-cap prefixes and EOF inside a
// frame; the same sockets send raw HTTP request heads.  Every socket
// carries a 10 s receive timeout, so a peer that never answers fails the
// test instead of hanging it.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ohpx/common/bytes.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::testutil {

inline void set_receive_timeout(int fd) {
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

/// `payload` behind its length prefix: one frame of the TCP stream.
inline Bytes framed(BytesView payload) {
  Bytes out(transport::kFramePrefixSize);
  transport::store_frame_prefix(out.data(),
                                static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// One connected stream socket, closed on destruction.
class RawSocket {
 public:
  explicit RawSocket(int fd = -1) : fd_(fd) {
    if (fd_ >= 0) set_receive_timeout(fd_);
  }
  RawSocket(RawSocket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  RawSocket& operator=(RawSocket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;
  ~RawSocket() { close(); }

  /// Dials 127.0.0.1:`port` with TCP_NODELAY, so each send leaves as its
  /// own segment.  Invalid (fd -1) when the dial fails.
  static RawSocket connect_to(std::uint16_t port) {
    RawSocket socket(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(socket.fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      socket.close();
      return socket;
    }
    const int one = 1;
    ::setsockopt(socket.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return socket;
  }

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  void close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void shutdown_write() noexcept { ::shutdown(fd_, SHUT_WR); }

  /// Sends every byte, in as many sends as the kernel needs; false once
  /// the peer is gone.
  bool send_all(BytesView bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes = bytes.subspan(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// One send per byte.
  bool send_bytewise(BytesView bytes) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (!send_all(bytes.subspan(i, 1))) return false;
    }
    return true;
  }

  /// Reads exactly `size` bytes; false at EOF, on error or on timeout.
  bool recv_exact(std::uint8_t* out, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::recv(fd_, out, size, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      out += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one length-prefixed frame; nullopt at EOF, on error or on
  /// timeout.
  std::optional<Bytes> read_frame() {
    std::uint8_t prefix[transport::kFramePrefixSize];
    if (!recv_exact(prefix, sizeof(prefix))) return std::nullopt;
    const std::size_t size = (std::size_t{prefix[0]} << 24) |
                             (std::size_t{prefix[1]} << 16) |
                             (std::size_t{prefix[2]} << 8) | prefix[3];
    Bytes frame(size);
    if (!recv_exact(frame.data(), size)) return std::nullopt;
    return frame;
  }

  /// Every byte the peer sends before it closes; nullopt when the receive
  /// timeout expires first.  A reset ends the stream like EOF does: a
  /// server that answers before reading the whole request closes with
  /// bytes unread, and the kernel turns that close into a reset.
  std::optional<std::string> read_to_close() {
    std::string bytes;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        bytes.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0 || errno == ECONNRESET) {
        return bytes;
      } else if (errno != EINTR) {
        return std::nullopt;
      }
    }
  }

  /// True once the peer has closed the connection: recv sees EOF or a
  /// reset.  False when data arrives or the receive timeout expires.
  bool closed_by_peer() {
    std::uint8_t byte = 0;
    ssize_t n = 0;
    do {
      n = ::recv(fd_, &byte, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

 private:
  int fd_;
};

/// A listening socket on an ephemeral loopback port.
class RawAcceptor {
 public:
  RawAcceptor() : listener_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listener_.fd(), reinterpret_cast<sockaddr*>(&addr), len) ==
            0 &&
        ::listen(listener_.fd(), 8) == 0 &&
        ::getsockname(listener_.fd(), reinterpret_cast<sockaddr*>(&addr),
                      &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }

  /// 0 when binding failed.
  std::uint16_t port() const noexcept { return port_; }

  /// The next incoming connection, with TCP_NODELAY as connect_to()
  /// sets it: two small frames written in two sends leave at once instead
  /// of the second waiting for the peer's delayed ACK.  Invalid after the
  /// 10 s timeout.
  RawSocket accept_one() {
    int fd = -1;
    do {
      fd = ::accept(listener_.fd(), nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return RawSocket(fd);
  }

 private:
  RawSocket listener_;  // a listening socket; its timeout bounds accept()
  std::uint16_t port_ = 0;
};

/// Plays the server for the reactor: reads up to `count` request frames
/// from `peer` and returns an unprefixed reply frame for each, the
/// request's header turned into a reply (correlation id kept) over the
/// request's body.
inline std::vector<Bytes> echo_replies(RawSocket& peer, std::size_t count) {
  std::vector<Bytes> replies;
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<Bytes> request = peer.read_frame();
    if (!request) break;
    BytesView body;
    wire::MessageHeader header = wire::decode_frame(*request, body);
    header.type = wire::MessageType::reply;
    replies.push_back(wire::encode_frame(header, body).release());
  }
  return replies;
}

}  // namespace ohpx::testutil
