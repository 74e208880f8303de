// ohpx-top: a `top`-style live view over the introspection exporter.
//
// Polls http://HOST:PORT/metrics (the IntrospectHttpServer exposition),
// parses the Prometheus text format with no dependencies beyond the
// socket API, and renders a per-context table — calls/s (from deltas
// between polls), dispatch p50/p99 — plus the reactor gauges and every
// registered breaker entry.  Standalone on purpose: of ohpx it links only
// ohpx_common, for the strict readers of its flags (common/parse.hpp) and
// of the exposition (common/exposition_text.hpp), so it can watch any
// process that serves the exposition.
//
// usage: ohpx_top [HOST:]PORT [--interval SEC] [--once] [--raw]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/exposition_text.hpp"
#include "ohpx/common/parse.hpp"

namespace {

// ---- transport -------------------------------------------------------------

std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "socket() failed";
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error = "bad host address " + host + " (numeric IPv4 only)";
    ::close(fd);
    return {};
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error = "connect to " + host + ":" + std::to_string(port) + " refused";
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) < 0) {
    error = "send failed";
    ::close(fd);
    return {};
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) {
    error = "malformed HTTP response";
    return {};
  }
  if (response.find("200") == std::string::npos ||
      response.find("200") > response.find("\r\n")) {
    error = "non-200 response: " + response.substr(0, response.find("\r\n"));
    return {};
  }
  return response.substr(split + 4);
}

// ---- table rendering -------------------------------------------------------

struct ContextRow {
  double requests = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double find_value(const std::vector<ohpx::ExpositionSample>& samples,
                  const char* name, double fallback = 0.0) {
  for (const auto& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return fallback;
}

const char* breaker_state_name(double value) {
  if (value < 0.5) return "closed";
  if (value < 1.5) return "OPEN";
  return "half-open";
}

void render(const std::vector<ohpx::ExpositionSample>& samples,
            std::map<std::string, double>& previous_requests,
            double interval_s, bool clear_screen) {
  std::map<std::string, ContextRow> contexts;
  for (const auto& sample : samples) {
    if (sample.name == "ohpx_server_context_requests_total") {
      const auto it = sample.labels.find("context");
      if (it != sample.labels.end()) {
        contexts[it->second].requests = sample.value;
      }
    } else if (sample.name == "ohpx_server_context_latency_us") {
      const auto ctx = sample.labels.find("context");
      const auto quantile = sample.labels.find("quantile");
      if (ctx == sample.labels.end() || quantile == sample.labels.end()) {
        continue;
      }
      if (quantile->second == "0.5") {
        contexts[ctx->second].p50_us = sample.value;
      } else if (quantile->second == "0.99") {
        contexts[ctx->second].p99_us = sample.value;
      }
    }
  }

  if (clear_screen) std::fputs("\x1b[2J\x1b[H", stdout);

  std::printf("ohpx-top  calls=%.0f  inflight=%.0f/%.0f  conns=%.0f"
              "  backpressure=%.0f  cache-hit=%.2f\n",
              find_value(samples, "ohpx_rmi_calls_total"),
              find_value(samples, "ohpx_reactor_inflight"),
              find_value(samples, "ohpx_reactor_inflight_window"),
              find_value(samples, "ohpx_reactor_connections"),
              find_value(samples, "ohpx_reactor_backpressure_total"),
              find_value(samples, "ohpx_rmi_select_cache_hit_ratio"));
  std::printf("reactor: loop-lag p99=%.0fus  stalls=%.0f  reconnects=%.0f"
              "  flight-recorder=%.0f events\n",
              [&samples] {
                for (const auto& sample : samples) {
                  if (sample.name == "ohpx_reactor_loop_lag_us" &&
                      sample.labels.count("quantile") != 0 &&
                      sample.labels.at("quantile") == "0.99") {
                    return sample.value;
                  }
                }
                return 0.0;
              }(),
              find_value(samples, "ohpx_rmi_reactor_stall_total"),
              find_value(samples, "ohpx_reactor_reconnects_total"),
              find_value(samples, "ohpx_flight_recorder_retained"));
  std::printf("\n%-10s %12s %10s %12s %12s\n", "CONTEXT", "REQUESTS",
              "CALLS/S", "P50(us)", "P99(us)");
  for (const auto& [context, row] : contexts) {
    double rate = 0.0;
    const auto prev = previous_requests.find(context);
    if (prev != previous_requests.end() && interval_s > 0.0) {
      rate = (row.requests - prev->second) / interval_s;
      if (rate < 0.0) rate = 0.0;  // exporter restarted; counter reset
    }
    previous_requests[context] = row.requests;
    std::printf("%-10s %12.0f %10.1f %12.0f %12.0f\n", context.c_str(),
                row.requests, rate, row.p50_us, row.p99_us);
  }
  if (contexts.empty()) {
    std::printf("(no per-context series yet — waiting for traffic)\n");
  }

  bool breaker_header = false;
  for (const auto& sample : samples) {
    if (sample.name != "ohpx_breaker_state") continue;
    if (!breaker_header) {
      std::printf("\n%-24s %-16s %-12s %s\n", "BREAKER SET", "ENTRY",
                  "PROTOCOL", "STATE");
      breaker_header = true;
    }
    const auto label = [&sample](const char* key) {
      const auto it = sample.labels.find(key);
      return it == sample.labels.end() ? std::string("-") : it->second;
    };
    std::printf("%-24s %-16s %-12s %s\n", label("set").c_str(),
                label("entry").c_str(), label("protocol").c_str(),
                breaker_state_name(sample.value));
  }
  std::fflush(stdout);
}

int usage(std::FILE* out, int status) {
  std::fprintf(out, "usage: ohpx_top [HOST:]PORT [--interval SEC] [--once] "
                    "[--raw]\n");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double interval_s = 2.0;
  bool once = false;
  bool raw = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) {
      const auto seconds = ohpx::parse_decimal(argv[++i], 0.0, 86400.0);
      if (!seconds) return usage(stderr, 2);
      interval_s = *seconds;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--raw") {
      raw = true;
    } else if (arg == "--help") {
      return usage(stdout, 0);
    } else if (!arg.empty() && arg[0] != '-') {
      // A bare PORT keeps the default host.
      const auto address = ohpx::parse_host_port(
          arg.find(':') == std::string::npos ? ":" + arg : arg);
      if (!address) return usage(stderr, 2);
      if (!address->host.empty()) host = address->host;
      port = address->port;
    } else {
      std::fprintf(stderr, "ohpx-top: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "ohpx-top: missing [HOST:]PORT (see --help)\n");
    return 2;
  }

  std::map<std::string, double> previous_requests;
  for (;;) {
    std::string error;
    const std::string payload = http_get(host, port, "/metrics", error);
    if (!error.empty()) {
      std::fprintf(stderr, "ohpx-top: %s\n", error.c_str());
      if (once) return 1;
    } else if (raw) {
      std::fputs(payload.c_str(), stdout);
    } else {
      render(ohpx::parse_exposition(payload), previous_requests, interval_s,
             !once);
    }
    if (once) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_s < 0.1 ? 0.1 : interval_s));
  }
}
