// Minimal HTTP/1.x listener for the introspection plane.
//
// Deliberately tiny: GET only, Connection: close, one response per
// connection, loopback only — enough for `curl :port/metrics`, a
// Prometheus scrape, and ohpx-top's polling, and nothing more.  It lives
// in transport/ because that is the one directory allowed to make
// blocking socket syscalls (tools/ohpx_lint.py, rule
// blocking-socket); everything above hands in a path->response callback.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::transport {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
};

/// Called per request with the request path (e.g. "/metrics"); runs on the
/// connection's thread.  Throwing maps to a 500 response.
using HttpHandler = std::function<HttpResponse(const std::string& path)>;

/// Accepting side: binds 127.0.0.1:`port` (0 = ephemeral) and serves each
/// connection on its own thread — the same shape as TcpListener, tuned for
/// a handful of concurrent scrapers rather than RPC fan-in.
class HttpListener {
 public:
  HttpListener(std::uint16_t port, HttpHandler handler);
  ~HttpListener();

  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

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
  HttpHandler handler_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  sync::Mutex workers_mutex_{"transport.http.workers"};
  std::vector<std::thread> workers_ OHPX_GUARDED_BY(workers_mutex_);
  std::set<int> open_connections_ OHPX_GUARDED_BY(workers_mutex_);
  std::vector<std::thread::id> finished_ OHPX_GUARDED_BY(workers_mutex_);
};

}  // namespace ohpx::transport
