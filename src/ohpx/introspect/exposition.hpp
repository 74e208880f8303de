// Prometheus text exposition of the ORB's live state.
//
// render_exposition() folds every introspection source into one scrape
// payload:
//   - the global MetricsRegistry snapshot (counters + latency histograms,
//     dynamic families like "rmi.calls.<protocol>" rendered as labels),
//   - reactor health (inflight window + per-connection inflight/queue
//     gauges from Reactor::global().connection_stats()),
//   - every live circuit breaker's state (resilience::BreakerRegistry),
//   - the protocol-selection cache hit ratio,
//   - buffer-pool occupancy and flight-recorder depth.
//
// The payload is served identically over HTTP (http_exporter.hpp) and over
// ohpx RMI (servant.hpp) — one renderer, two bearers.
#pragma once

#include <string>

#include "ohpx/metrics/metrics.hpp"

namespace ohpx::introspect {

/// The full process-wide exposition (constructs the global reactor if it
/// does not exist yet, so reactor families are always present).
std::string render_exposition();

/// Renders only the registry-derived families from `snapshot` — the
/// testable core of render_exposition(), with no global state touched.
std::string render_registry_families(const metrics::MetricsSnapshot& snapshot);

}  // namespace ohpx::introspect
