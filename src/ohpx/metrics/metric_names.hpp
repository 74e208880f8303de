// Canonical registry of every metric name in src/.
//
// Metric names are a cross-file contract, exactly like span names
// (trace/span_names.hpp): the exporter maps them to Prometheus families,
// ohpx-top keys its table on them, tests assert on them, and dashboards
// break silently when one drifts.  ohpx-lint's AST tier
// (tools/ohpx_lint_ast.py, rule metric-names) bans raw metric-name string
// literals at registry call sites anywhere in src/ outside this header —
// every counter_handle()/latency_handle()/increment()/record_latency()/
// ScopedLatency site must reach its name through these constants or the
// derived-name helpers below.
//
// Two kinds of names live here:
//   - fixed names (`k...` constants): one series each;
//   - dynamic families (`...Prefix` constants + builder functions): a
//     bounded set of series keyed by protocol name, error code or context
//     id.  The exporter recognizes the prefixes and renders the suffix as
//     a Prometheus label, so new members of a family need no exporter
//     change.
//
// Adding a metric?  Add its name here in the same change that introduces
// the call site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ohpx::metrics::names {

// ---- client invocation layer (orb/invocation.cpp) --------------------------

inline constexpr const char* kRmiCalls = "rmi.calls";
inline constexpr const char* kRmiSelectCacheHit = "rmi.select.cache_hit";
inline constexpr const char* kRmiSelectCacheMiss = "rmi.select.cache_miss";
/// Cached selections dropped because the object's location epoch moved —
/// the churn half of the cache's hit/miss/invalidate triple.
inline constexpr const char* kRmiSelectCacheInvalidate =
    "rmi.select.cache_invalidate";
inline constexpr const char* kRmiRetries = "rmi.retries";
inline constexpr const char* kRmiBackpressure = "rmi.backpressure";
inline constexpr const char* kRmiDeadlineExceeded = "rmi.deadline_exceeded";
inline constexpr const char* kRmiBreakerOpened = "rmi.breaker.opened";
inline constexpr const char* kRmiBreakerClosed = "rmi.breaker.closed";
inline constexpr const char* kRmiLatency = "rmi.latency";

// ---- async continuation path (call_async settlement) -----------------------

/// Completion latency of async calls, submit to settlement (the async
/// sibling of kRmiLatency, recorded in finish_async_reply).
inline constexpr const char* kRmiAsyncLatency = "rmi.async.latency";
/// Async futures settled by deadline cancellation instead of a reply.
inline constexpr const char* kRmiAsyncDeadlineCancelled =
    "rmi.async.deadline_cancelled";

// ---- reactor / transport (transport/reactor.cpp) ---------------------------

inline constexpr const char* kReactorBatches = "reactor.batches";
inline constexpr const char* kReactorFrames = "reactor.frames";
inline constexpr const char* kReactorBackpressure = "reactor.backpressure";
inline constexpr const char* kReactorDeadlineCancelled =
    "reactor.deadline_cancelled";
/// Successful re-establishments of a connection that had been up before.
inline constexpr const char* kReactorReconnects = "reactor.reconnects";
/// Histogram: per-tick event-loop processing time (everything between an
/// epoll_wait return and the next sleep decision).
inline constexpr const char* kReactorLoopLag = "reactor.loop_lag";
/// Histogram: frames per sendmsg gather batch, encoded as 1 "us" per
/// frame so the log2 buckets read as frame-count bands (see reactor.cpp).
inline constexpr const char* kReactorBatchFrames = "reactor.batch_frames";
/// Gauges (stored, not accumulated): current inflight calls and open
/// connections, refreshed at the end of every reactor tick.
inline constexpr const char* kReactorInflight = "reactor.inflight";
inline constexpr const char* kReactorConnections = "reactor.connections";
/// Stall watchdog: ticks whose loop lag exceeded the stall
/// threshold (each one also drops a flight-recorder entry).
inline constexpr const char* kRmiReactorStall = "rmi.reactor.stall";

// ---- naming / replica failover (naming/*.cpp) ------------------------------

/// Bind operations accepted by a directory (bind + bind_replica).
inline constexpr const char* kNamingBinds = "naming.binds";
/// Resolve operations served (resolve, resolve_versioned, resolve_all).
inline constexpr const char* kNamingResolves = "naming.resolves";
/// Lease renewals accepted from registered replicas.
inline constexpr const char* kNamingHeartbeats = "naming.heartbeats";
/// Replica registrations dropped because their lease ran out.
inline constexpr const char* kNamingExpired = "naming.expired";
/// Replica registrations dropped by a client's dead-replica report.
inline constexpr const char* kNamingDeadReports = "naming.dead_reports";
/// Client-side rebinds to another replica after a transport loss or a
/// breaker trip (naming/failover.hpp).
inline constexpr const char* kNamingFailovers = "naming.failovers";
/// NameClient resolve cache hit/miss split (naming/name_client.cpp).
inline constexpr const char* kNamingResolveCacheHit =
    "naming.resolve.cache_hit";
inline constexpr const char* kNamingResolveCacheMiss =
    "naming.resolve.cache_miss";
/// Gauge (stored): live replica registrations across all names.
inline constexpr const char* kNamingReplicasLive = "naming.replicas_live";
/// Catch-up polls a standby completed against its primary
/// (naming/replication.cpp).
inline constexpr const char* kNamingReplSyncs = "naming.repl.syncs";
/// Name snapshots a standby applied from the catch-up stream.
inline constexpr const char* kNamingReplUpdates = "naming.repl.updates";
/// Standby → primary promotions (the `__primary` lease lapsed).
inline constexpr const char* kNamingReplPromotions = "naming.repl.promotions";
/// Mutations a standby refused with a not_primary redirect.
inline constexpr const char* kNamingRedirects = "naming.redirects";
/// Redirects a NameClient followed to the current primary.
inline constexpr const char* kNamingRedirectFollows =
    "naming.redirect_follows";
/// Bootstrap endpoints a NameClient walked past after a transport loss.
inline constexpr const char* kNamingEndpointFailovers =
    "naming.endpoint_failovers";
/// Records appended to the directory's persistence journal.
inline constexpr const char* kNamingJournalRecords = "naming.journal.records";

// ---- server dispatch (orb/context.cpp) -------------------------------------

inline constexpr const char* kServerRequests = "server.requests";
/// Histogram: server-side dispatch latency (decode + route + servant).
inline constexpr const char* kServerDispatchLatency = "server.dispatch";

// ---- dynamic families ------------------------------------------------------

inline constexpr const char* kRmiCallsPrefix = "rmi.calls.";
inline constexpr const char* kRmiErrorsPrefix = "rmi.errors.";
inline constexpr const char* kServerErrorsPrefix = "server.errors.";
inline constexpr const char* kServerCtxRequestsPrefix = "server.ctx.requests.";
inline constexpr const char* kServerCtxLatencyPrefix = "server.ctx.latency.";

/// "rmi.calls.<protocol>": calls served by one protocol-table entry.
inline std::string protocol_calls(std::string_view protocol) {
  return kRmiCallsPrefix + std::string(protocol);
}

/// "rmi.errors.<code>": error replies decoded on the client, by code name.
inline std::string rmi_error(std::string_view code_name) {
  return kRmiErrorsPrefix + std::string(code_name);
}

/// "server.errors.<code>": error replies produced by the server, by code.
inline std::string server_error(std::string_view code_name) {
  return kServerErrorsPrefix + std::string(code_name);
}

/// "server.ctx.requests.<id>": requests dispatched by one context.
inline std::string context_requests(std::uint64_t context_id) {
  return kServerCtxRequestsPrefix + std::to_string(context_id);
}

/// "server.ctx.latency.<id>": dispatch latency histogram of one context.
inline std::string context_latency(std::uint64_t context_id) {
  return kServerCtxLatencyPrefix + std::to_string(context_id);
}

}  // namespace ohpx::metrics::names
