// Context (paper §2): "a virtual address space" — the unit an Open HPC++
// application is partitioned into.  A context hosts servants, terminates
// the server side of every protocol (the paper's proto-classes and glue
// classes), and acts as the client-side home of global pointers (request
// ids, proto-pool).
//
// Server pipeline, split at the frame:
//   dispatch: [glue? strip glue id, unprocess through the server copy of
//     the capability chain, admission checks] → servant → [glue? process
//     the reply back through the chain] → reply header: the one handler
//     the context binds into the endpoint registry, which every
//     in-process bearer (shm, relay, nexus-tcp) calls with the caller's
//     header and body;
//   handle_frame: decode frame → dispatch → encode reply frame, for the
//     one bearer that carries frames (tcp).
// Any exception becomes an error reply carrying the ohpx ErrorCode, which
// the client re-raises as a typed exception.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ohpx/capability/chain.hpp"
#include "ohpx/common/annotations.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/netsim/topology.hpp"
#include "ohpx/orb/location.hpp"
#include "ohpx/orb/object_ref.hpp"
#include "ohpx/orb/servant.hpp"
#include "ohpx/protocol/pool.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::orb {

using ContextId = std::uint32_t;

/// Server-side glue binding: one registered capability chain (the paper's
/// glue class GC with "its own copies of the capabilities").
struct GlueBinding {
  std::uint32_t glue_id = 0;
  ObjectId object_id = kInvalidObject;
  cap::CapabilityChain chain;
};

class Context {
 public:
  /// Creates a context on `machine`, binds its in-process endpoint
  /// ("ctx/<id>") and registers nothing else.  Topology and location
  /// service must outlive the context.
  Context(ContextId id, netsim::MachineId machine, netsim::Topology& topology,
          LocationService& location);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  ContextId id() const noexcept { return id_; }
  netsim::MachineId machine() const noexcept { return machine_; }
  netsim::Topology& topology() noexcept { return topology_; }
  const netsim::Topology& topology() const noexcept { return topology_; }
  LocationService& location() noexcept { return location_; }
  const std::string& endpoint_name() const noexcept { return endpoint_; }

  /// The client-side proto-pool of this context (paper §3.1).
  proto::ProtoPool& pool() noexcept { return pool_; }
  const proto::ProtoPool& pool() const noexcept { return pool_; }

  /// Starts a real TCP listener for this context (loopback, ephemeral
  /// port); after this the context's address advertises host/port and the
  /// "tcp" protocol becomes applicable to it.
  void enable_tcp();

  /// As enable_tcp(), binding `listen_host`:`port` (port 0 = ephemeral,
  /// host "0.0.0.0" = all interfaces).  `advertise_host` is the address
  /// minted into ORs and the location service — the name peers dial.  It
  /// defaults to `listen_host`, or 127.0.0.1 for wildcard binds (a peer
  /// cannot dial 0.0.0.0); multi-machine deployments pass the machine's
  /// routable name here (docs/deployment.md).
  void enable_tcp(const std::string& listen_host, std::uint16_t port,
                  const std::string& advertise_host = "");

  bool tcp_enabled() const noexcept { return listener_ != nullptr; }

  /// This context's current address block (what the location service and
  /// minted ORs carry).
  proto::ServerAddress current_address() const;

  // -- servant hosting --

  /// Registers a servant under a fresh object id and publishes its
  /// location.  Returns the id.
  ObjectId activate(ServantPtr servant);

  /// Registers a servant under a caller-supplied id (migration re-homing).
  void activate_with_id(ObjectId object_id, ServantPtr servant);

  /// Unregisters a servant.  If `forget_location` the object disappears
  /// from the location service too (destroy); migration keeps the entry.
  void deactivate(ObjectId object_id, bool forget_location = true);

  ServantPtr find_servant(ObjectId object_id) const;
  bool hosts(ObjectId object_id) const;
  std::vector<ObjectId> hosted_objects() const;

  // -- server-side glue chains --

  /// Registers a server-side capability chain for `object_id`; returns the
  /// process-unique glue id carried in glue proto-data.
  std::uint32_t register_glue(ObjectId object_id, cap::CapabilityChain chain);

  /// Registers under a pre-existing glue id (migration re-homing).
  void register_glue_with_id(std::uint32_t glue_id, ObjectId object_id,
                             cap::CapabilityChain chain);

  /// Snapshot of the bindings attached to one object (for migration).
  std::vector<std::shared_ptr<GlueBinding>> glue_bindings_of(
      ObjectId object_id) const;

  /// Access to one binding (server-side inspection of quotas, audits...).
  std::shared_ptr<GlueBinding> find_glue(std::uint32_t glue_id) const;

  /// Drops the bindings attached to one object.
  void remove_glue_of(ObjectId object_id);

  /// Revokes a single glue binding: outstanding references that carry this
  /// glue id lose access immediately (their requests are refused with
  /// capability_unknown), while other references to the object keep
  /// working.  Returns false if the id was not registered here.
  bool revoke_glue(std::uint32_t glue_id);

  // -- client-side ids --

  /// Process-unique request id (context id folded into the high bits so
  /// capability nonces never collide across clients).
  std::uint64_t next_request_id() noexcept;

  /// Fresh context id for ad-hoc construction (Worlds assign their own).
  static ContextId allocate_id() noexcept;

  /// The server pipeline after the frame: serves one request given as its
  /// header and body and returns the reply, whose payload is a pooled
  /// buffer the caller owns; any failure is an error reply.  The
  /// in-process bearers call it on the caller's thread, with the caller's
  /// buffers.
  wire::ReplyEnvelope dispatch(const wire::MessageHeader& header,
                               BytesView body) noexcept;

  /// The complete framed pipeline: decode, dispatch(), encode the reply
  /// (a frame that does not decode gets an error reply).  The TCP
  /// listener calls it with each request as the view it was read into;
  /// public so tests and custom listeners can reuse it.
  wire::Buffer handle_frame(BytesView frame) noexcept;

 private:
  wire::ReplyEnvelope dispatch_or_throw(const wire::MessageHeader& header,
                                        BytesView body);
  /// An error reply to `request_header`, counted under server.errors.<code>.
  wire::ReplyEnvelope error_reply(const wire::MessageHeader& request_header,
                                  ErrorCode code,
                                  const std::string& message) const;

  ContextId id_;
  netsim::MachineId machine_;
  netsim::Topology& topology_;
  LocationService& location_;
  std::string endpoint_;
  proto::ProtoPool pool_;

  mutable sync::Mutex mutex_{"orb.context"};
  std::map<ObjectId, ServantPtr> servants_ OHPX_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::shared_ptr<GlueBinding>> glue_bindings_
      OHPX_GUARDED_BY(mutex_);

  std::unique_ptr<transport::TcpListener> listener_;
  std::string advertise_host_;  // set alongside listener_
  std::atomic<std::uint64_t> request_counter_{0};

  // Interned hot-path metrics (resolved once; see MetricsRegistry handles):
  // the process-wide request counter plus this context's own series —
  // "server.ctx.requests.<id>" / "server.ctx.latency.<id>" — which the
  // exporter renders as per-context families and ohpx-top keys its live
  // table on.
  metrics::MetricsRegistry::Counter* requests_counter_;
  metrics::MetricsRegistry::Counter* ctx_requests_counter_;
  metrics::LatencyHistogram* dispatch_latency_;
  metrics::LatencyHistogram* ctx_dispatch_latency_;
};

}  // namespace ohpx::orb
