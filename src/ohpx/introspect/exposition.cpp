#include "ohpx/introspect/exposition.hpp"

#include <cstdint>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/resilience/breaker.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::introspect {
namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; ohpx metric names are
// lowercase dotted, so dots (and anything else) become underscores.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string one_label(std::string_view key, std::string_view value) {
  return "{" + std::string(key) + "=\"" + escape_label(value) + "\"}";
}

bool starts_with(std::string_view name, std::string_view prefix) {
  return name.size() > prefix.size() &&
         name.substr(0, prefix.size()) == prefix;
}

// One exposition family: TYPE/HELP metadata plus its sample lines.  Kept
// in a map so a dynamic family ("rmi.calls.<protocol>") declares its
// metadata exactly once however many members the snapshot holds.
struct Family {
  std::string type;  // "counter" | "gauge" | "summary"
  std::string help;
  std::vector<std::string> lines;
};

class Builder {
 public:
  Family& family(const std::string& name, const std::string& type,
                 const std::string& help) {
    Family& fam = families_[name];
    if (fam.type.empty()) {
      fam.type = type;
      fam.help = help;
    }
    return fam;
  }

  void sample(const std::string& family_name, const std::string& type,
              const std::string& help, const std::string& labels,
              std::uint64_t value) {
    family(family_name, type, help)
        .lines.push_back(family_name + labels + " " + std::to_string(value));
  }

  void sample_f(const std::string& family_name, const std::string& type,
                const std::string& help, const std::string& labels,
                double value) {
    std::ostringstream formatted;
    formatted << family_name << labels << " " << value;
    family(family_name, type, help).lines.push_back(formatted.str());
  }

  std::string render() const {
    std::ostringstream out;
    for (const auto& [name, fam] : families_) {
      out << "# HELP " << name << " " << fam.help << "\n";
      out << "# TYPE " << name << " " << fam.type << "\n";
      for (const std::string& line : fam.lines) out << line << "\n";
    }
    return out.str();
  }

 private:
  std::map<std::string, Family> families_;
};

// Dynamic counter families: a registry name carrying one of these
// prefixes renders as family + label instead of a sanitized flat name.
struct PrefixRoute {
  const char* prefix;
  const char* family;
  const char* label;
  const char* help;
};

constexpr PrefixRoute kCounterPrefixes[] = {
    {"rmi.calls.", "ohpx_rmi_protocol_calls_total", "protocol",
     "RMI calls served, by selected protocol entry."},
    {"rmi.errors.", "ohpx_rmi_errors_total", "code",
     "Error replies decoded on the client, by error code."},
    {"server.errors.", "ohpx_server_errors_total", "code",
     "Error replies produced by the server pipeline, by error code."},
    {"server.ctx.requests.", "ohpx_server_context_requests_total", "context",
     "Requests dispatched, by server context id."},
};

constexpr PrefixRoute kHistogramPrefixes[] = {
    {"server.ctx.latency.", "ohpx_server_context_latency_us", "context",
     "Server dispatch latency by context id (microseconds, "
     "log2-bucket approximation)."},
};

// Registry counters that are stored, not accumulated.
bool is_gauge_name(std::string_view name) {
  return name == metrics::names::kReactorInflight ||
         name == metrics::names::kReactorConnections ||
         name == metrics::names::kNamingReplicasLive;
}

const char* fixed_counter_help(std::string_view name) {
  if (name == metrics::names::kRmiCalls) {
    return "Total RMI calls entering the invocation layer.";
  }
  if (name == metrics::names::kRmiReactorStall) {
    return "Event-loop ticks whose lag exceeded the stall threshold.";
  }
  if (name == metrics::names::kReactorBackpressure) {
    return "Submissions refused because an inflight window was full.";
  }
  if (name == metrics::names::kReactorReconnects) {
    return "Connection re-establishments after an earlier successful "
           "connect.";
  }
  if (name == metrics::names::kRmiAsyncDeadlineCancelled) {
    return "Async futures settled by deadline cancellation.";
  }
  return "ohpx counter (see src/ohpx/metrics/metric_names.hpp).";
}

const char* fixed_histogram_help(std::string_view name) {
  if (name == metrics::names::kReactorLoopLag) {
    return "Reactor event-loop processing time per tick (microseconds).";
  }
  if (name == metrics::names::kReactorBatchFrames) {
    return "Frames per sendmsg gather batch (unit = one frame, "
           "log2 buckets).";
  }
  if (name == metrics::names::kRmiAsyncLatency) {
    return "Async call completion latency, submit to settlement "
           "(microseconds).";
  }
  return "ohpx latency summary (microseconds, log2-bucket approximation).";
}

void add_registry_families(Builder& builder,
                           const metrics::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    bool routed = false;
    for (const PrefixRoute& route : kCounterPrefixes) {
      if (starts_with(name, route.prefix)) {
        const std::string suffix = name.substr(std::string(route.prefix).size());
        builder.sample(route.family, "counter", route.help,
                       one_label(route.label, suffix), value);
        routed = true;
        break;
      }
    }
    if (routed) continue;
    if (is_gauge_name(name)) {
      builder.sample("ohpx_" + sanitize(name), "gauge",
                     "ohpx gauge (refreshed every reactor tick).", "", value);
      continue;
    }
    builder.sample("ohpx_" + sanitize(name) + "_total", "counter",
                   fixed_counter_help(name), "", value);
  }

  for (const auto& [name, count] : snapshot.latency_counts) {
    std::string family = "ohpx_" + sanitize(name) + "_us";
    std::string labels;
    const char* help = fixed_histogram_help(name);
    for (const PrefixRoute& route : kHistogramPrefixes) {
      if (starts_with(name, route.prefix)) {
        family = route.family;
        labels = one_label(route.label,
                           name.substr(std::string(route.prefix).size()));
        help = route.help;
        break;
      }
    }
    const auto quantiles_it = snapshot.latency_quantiles.find(name);
    const auto mean_it = snapshot.latency_mean_us.find(name);
    const metrics::LatencyQuantiles quantiles =
        quantiles_it != snapshot.latency_quantiles.end()
            ? quantiles_it->second
            : metrics::LatencyQuantiles{};
    const double mean_us =
        mean_it != snapshot.latency_mean_us.end() ? mean_it->second : 0.0;
    // Quantile labels merge with any routing label: {context="1",
    // quantile="0.5"}.
    const std::string base =
        labels.empty() ? "" : labels.substr(0, labels.size() - 1) + ", ";
    auto quantile_labels = [&](const char* q) {
      if (labels.empty()) return one_label("quantile", q);
      return base + "quantile=\"" + std::string(q) + "\"}";
    };
    Family& fam = builder.family(family, "summary", help);
    fam.lines.push_back(family + quantile_labels("0.5") + " " +
                        std::to_string(quantiles.p50_us));
    fam.lines.push_back(family + quantile_labels("0.95") + " " +
                        std::to_string(quantiles.p95_us));
    fam.lines.push_back(family + quantile_labels("0.99") + " " +
                        std::to_string(quantiles.p99_us));
    std::ostringstream sum_line;
    sum_line << family << "_sum" << labels << " "
             << mean_us * static_cast<double>(count);
    fam.lines.push_back(sum_line.str());
    fam.lines.push_back(family + "_count" + labels + " " +
                        std::to_string(count));
  }
}

}  // namespace

std::string render_registry_families(
    const metrics::MetricsSnapshot& snapshot) {
  Builder builder;
  add_registry_families(builder, snapshot);
  return builder.render();
}

std::string render_exposition() {
  // Anyone rendering the exposition wants the deep series — arm the
  // gated dispatch timers so subsequent scrapes see samples (the arming
  // is sticky; see the cost contract in metrics.hpp).
  metrics::enable_deep_timing();

  // Construct the global reactor up front: its constructor interns every
  // reactor.* handle, so loop-lag / inflight / backpressure families are
  // declared (at zero) even before the first async call.
  transport::Reactor& reactor = transport::Reactor::global();

  const metrics::MetricsSnapshot snapshot =
      metrics::MetricsRegistry::global().snapshot();
  Builder builder;
  add_registry_families(builder, snapshot);

  // Selection-cache effectiveness: hit ratio plus the raw hit/miss
  // counters already rendered above.  0 when no cached call has run.
  {
    auto counter_or_zero = [&](const std::string& name) -> std::uint64_t {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    const std::uint64_t hits =
        counter_or_zero(std::string(metrics::names::kRmiSelectCacheHit));
    const std::uint64_t misses =
        counter_or_zero(std::string(metrics::names::kRmiSelectCacheMiss));
    const double ratio =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    builder.sample_f("ohpx_rmi_select_cache_hit_ratio", "gauge",
                     "Protocol-selection cache hit ratio since start "
                     "(hits / (hits + misses)).",
                     "", ratio);
  }

  // Reactor window + per-connection health.
  builder.sample("ohpx_reactor_inflight_window", "gauge",
                 "Configured per-connection inflight window.", "",
                 reactor.inflight_window());
  builder.sample("ohpx_reactor_stall_threshold_us", "gauge",
                 "Stall-watchdog threshold (microseconds; 0 = disabled).", "",
                 static_cast<std::uint64_t>(
                     reactor.stall_threshold().count() > 0
                         ? reactor.stall_threshold().count() / 1000
                         : 0));
  {
    Family& inflight = builder.family(
        "ohpx_reactor_connection_inflight", "gauge",
        "Calls queued or awaiting reply, per reactor connection.");
    Family& queued = builder.family(
        "ohpx_reactor_connection_queued", "gauge",
        "Frames staged but not yet fully on the wire, per connection.");
    Family& reconnects = builder.family(
        "ohpx_reactor_connection_reconnects_total", "counter",
        "Re-establishments of this connection after a drop.");
    for (const auto& conn : reactor.connection_stats()) {
      const std::string peer =
          one_label("peer", conn.host + ":" + std::to_string(conn.port));
      inflight.lines.push_back("ohpx_reactor_connection_inflight" + peer +
                               " " + std::to_string(conn.inflight));
      queued.lines.push_back("ohpx_reactor_connection_queued" + peer + " " +
                             std::to_string(conn.queued));
      reconnects.lines.push_back("ohpx_reactor_connection_reconnects_total" +
                                 peer + " " +
                                 std::to_string(conn.reconnects));
    }
  }

  // Breaker states: 0 = closed, 1 = open, 2 = half_open.  The family is
  // declared even with no breakers registered, so dashboards (and the CI
  // --require gate) can rely on its presence.
  {
    Family& fam = builder.family(
        "ohpx_breaker_state", "gauge",
        "Circuit-breaker state per protocol entry "
        "(0 closed, 1 open, 2 half_open).");
    for (const auto& info : resilience::BreakerRegistry::global().snapshot()) {
      for (std::size_t i = 0; i < info.set->size(); ++i) {
        const std::string entry_name =
            i < info.entries.size() ? info.entries[i] : std::to_string(i);
        fam.lines.push_back(
            "ohpx_breaker_state{set=\"" + escape_label(info.label) +
            "\", entry=\"" + std::to_string(i) + "\", protocol=\"" +
            escape_label(entry_name) + "\"} " +
            std::to_string(static_cast<unsigned>(info.set->at(i).state())));
      }
    }
  }

  // Buffer-pool occupancy (process-wide, all threads).
  {
    const wire::BufferPool::GlobalStats pool = wire::BufferPool::global_stats();
    builder.sample("ohpx_wire_pool_pooled", "gauge",
                   "Wire buffers currently parked in thread-local pools.", "",
                   pool.pooled);
    builder.sample("ohpx_wire_pool_reused_total", "counter",
                   "Buffer acquisitions served from a pool.", "", pool.reused);
    builder.sample("ohpx_wire_pool_allocated_total", "counter",
                   "Buffer acquisitions that had to allocate.", "",
                   pool.allocated);
  }

  // Flight-recorder depth.
  {
    FlightRecorder& recorder = FlightRecorder::global();
    builder.sample("ohpx_flight_recorder_retained", "gauge",
                   "Flight-recorder records currently retained.", "",
                   recorder.size());
    builder.sample("ohpx_flight_recorder_events_total", "counter",
                   "Flight-recorder events recorded since start.", "",
                   recorder.total_recorded());
  }

  return builder.render();
}

}  // namespace ohpx::introspect
