// Canonical registry of every trace span/event name in src/.
//
// Span names are a cross-file contract: the exporter groups by them, the
// timeline tests assert on them, and dashboards key on them — so a name
// that exists only at one call site is either a typo or an undocumented
// stage.  ohpx-lint (tools/ohpx_lint.py, rule span-names) checks both
// directions against this list: every name passed to trace::Span /
// trace::event in src/ outside trace/ must be a single string literal
// registered here, and every registered name must still have a call site.
// An event name in the anomaly table (introspect/flight_recorder.hpp)
// counts as its call site: introspect::anomaly() emits it.
//
// Adding a span?  Add its name here (keep the array sorted) in the same
// change that introduces the call site.
#pragma once

namespace ohpx::trace::names {

inline constexpr const char* kRegistered[] = {
    "breaker.close",     // resilience: breaker closes after probe success
    "breaker.open",      // resilience: failure threshold tripped
    "breaker.probe",     // resilience: half-open trial call
    "cache.invalidate",  // orb: cached selection dropped (revision bump)
    "cap.process",       // capability: outbound chain stage
    "cap.unprocess",     // capability: inbound chain stage (reverse)
    "naming.failover",   // naming: stub rebound to another live replica
    "naming.next_endpoint",  // naming: client walked to its next endpoint
    "naming.promotion",  // naming: standby took the primary seat
    "naming.redirect",   // naming: client followed a not_primary redirect
    "proto.glue",        // protocol: glue-code dispatch
    "proto.nexus",       // protocol: nexus relay hop
    "proto.relay",       // protocol: store-and-forward relay
    "proto.shm",         // protocol: shared-memory transfer
    "proto.tcp",         // protocol: TCP roundtrip
    "reactor.backpressure",  // transport: inflight window full, call refused
    "reactor.conn_dropped",  // transport: a connection failed
    "reactor.deadline_sweep",  // transport: pending calls past deadline
    "reactor.stall",     // transport: event-loop tick over its threshold
    "retry",             // resilience: transient failure, re-attempting
    "retry.backoff",     // resilience: backoff wait before re-attempt
    "rmi.async.deadline",  // orb: async future settled by its deadline
    "rmi.deadline",      // orb: sync call's budget ran out
    "rmi.error_reply",   // orb: an error reply ended the call
    "rmi.invoke",        // orb: one logical remote method invocation
    "select",            // orb: protocol selection
    "servant.dispatch",  // orb: servant-side method execution
    "server.dispatch",   // orb: server-side request decode + route
    "transport",         // transport: channel send/receive leg
    "wire.decode",       // wire: frame or relay envelope decode
    "wire.encode",       // wire: frame or relay envelope encode
};

}  // namespace ohpx::trace::names
