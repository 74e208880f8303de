// Minimal HTTP/1.x listener for the introspection plane.
//
// Deliberately tiny: GET only, Connection: close, one response per
// connection, loopback only — enough for `curl :port/metrics`, a
// Prometheus scrape, and ohpx-top's polling, and nothing more.  It lives
// in transport/ because that is the one directory allowed to make
// blocking socket syscalls (tools/ohpx_lint.py, rule
// blocking-socket); everything above hands in a path->response callback.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ohpx/transport/tcp.hpp"

namespace ohpx::transport {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
};

/// Called per request with the request path (e.g. "/metrics"); runs on the
/// connection's thread.  Throwing maps to a 500 response.
using HttpHandler = std::function<HttpResponse(const std::string& path)>;

/// Binds 127.0.0.1:`port` (0 = ephemeral) and serves each connection on
/// its own thread — the same shape as TcpListener, because it is the same
/// Listener (tcp.hpp).  All this class adds is the protocol: read one
/// request head of at most 8 KiB, answer it, close.
class HttpListener {
 public:
  HttpListener(std::uint16_t port, HttpHandler handler);
  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// The actual bound port (useful with port 0).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Stops accepting and joins all threads.  Idempotent.
  void stop() { listener_.stop(); }

 private:
  void serve_connection(int fd);

  HttpHandler handler_;
  Listener listener_;  // last: destroyed first, joining every handler call
};

}  // namespace ohpx::transport
