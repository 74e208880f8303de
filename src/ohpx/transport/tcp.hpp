// Accepting side of the real TCP transport, built directly on the POSIX
// socket API.  Stream framing: u32 big-endian payload length + payload.
// Every outbound call rides the epoll reactor (reactor.hpp), which speaks
// the same framing against this listener; the benchmark suite instead
// uses the netsim-timed channel so results are deterministic (DESIGN.md
// §2).  Listeners default to loopback but can bind any local interface,
// which is what lets a World span OS processes and machines
// (docs/deployment.md).
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/channel.hpp"

namespace ohpx::transport {

/// Resolves `host` to an IPv4 address: dotted-quad fast path, getaddrinfo
/// fallback for names ("localhost", machine names).  "" and "0.0.0.0" map
/// to INADDR_ANY (listeners bind every interface).  Throws
/// TransportError(transport_connect_failed) for unresolvable hosts.
in_addr resolve_ipv4(const std::string& host);

/// Accepting side: binds `host`:`port` (port 0 = ephemeral, host "" /
/// "0.0.0.0" = all interfaces), serves each connection on its own thread,
/// dispatching frames into `handler`.
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
