// Naming service: a CORBA-style name → object-reference directory,
// itself implemented as an ordinary Open HPC++ servant.  Clients bootstrap
// from a single well-known reference (the name service's own OR) and
// resolve everything else through remote calls — including references
// whose glue entries carry capabilities, so handing out a name is handing
// out an access policy.
//
//   server:  naming::NameServiceHost host(server_ctx);
//            host.service().bind("weather/public", kiosk_ref);
//   client:  naming::NameClient names(client_ctx, host.ref());
//            auto ref = names.resolve("weather/public");
//
// Names are flat strings; use '/' segments by convention.  bind() on an
// existing name throws unless rebind is requested.
//
// Replica sets (docs/deployment.md): several servers may register under
// one name with bind_replica(), each registration kept alive by a lease
// (capability/builtin/lease.hpp) that heartbeats renew.  resolve() hands
// out the first *live* replica; resolve_all() hands out every live one so
// failover clients can walk the set.  Every mutation of a name — bind,
// replica join/leave, lease expiry, dead report — bumps that name's
// version, which travels with resolve replies so client caches
// (NameClient) can detect staleness.  A heartbeat renews a leased
// registration only: a permanent (ttl-zero) one stays permanent.
//
// One record describes an entry everywhere (naming/journal.hpp): the
// catch-up stream ships whole-entry NameSnapshots, and the persistence
// journal appends each bumped entry's durable slice (version + permanent
// replicas).  A standby applies its peer's snapshots and a restart replays
// the journal through the same apply_update(), so no path can roll an
// entry version back.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ohpx/capability/builtin/lease.hpp"
#include "ohpx/common/annotations.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/naming/journal.hpp"
#include "ohpx/orb/global_pointer.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/orb/servant.hpp"
#include "ohpx/orb/stub.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::naming {

/// The well-known name whose lease elects the primary of a replicated
/// directory pair (naming/replication.hpp).  Clients never bind it; the
/// reigning primary binds its own bootstrap ref under it.
inline constexpr const char* kPrimaryName = "__primary";

/// Replica identity: object ids are per-context counters, so two
/// *processes* hosting replicas of one name routinely collide on
/// object_id alone.  What a client actually observed dead is the
/// (object id, home TCP endpoint) pair — the comparison every dead-report
/// and failover-skip decision uses.
inline bool same_replica(const orb::ObjectRef& a,
                         const orb::ObjectRef& b) noexcept {
  return a.object_id() == b.object_id() &&
         a.home().tcp_host == b.home().tcp_host &&
         a.home().tcp_port == b.home().tcp_port;
}

/// One registered replica of a name: the serialized OR plus the lease
/// keeping it alive (a null lease never expires — plain bind() records).
struct ReplicaRecord {
  std::uint64_t replica_id = 0;
  Bytes ref;
  std::shared_ptr<cap::LeaseCapability> lease;

  bool live() const noexcept { return !lease || !lease->expired(); }
};

/// The directory servant.  Thread-safe; stores serialized ORs so entries
/// survive independent of any context's lifetime.
class NameServiceServant final : public orb::Servant {
 public:
  static constexpr std::string_view kTypeName = "NameService";

  enum Method : std::uint32_t {
    kBind = 1,        // (name: string, ref: bytes, rebind: bool) -> ()
    kResolve = 2,     // (name: string) -> bytes
    kUnbind = 3,      // (name: string) -> bool (existed)
    kList = 4,        // (prefix: string) -> vector<string>
    kBindReplica = 5,      // (name, ref: bytes, ttl_ms: u64) -> u64 id
    kHeartbeat = 6,        // (name, replica_id: u64, ttl_ms: u64) -> bool
    kUnbindReplica = 7,    // (name, replica_id: u64) -> bool
    kResolveAll = 8,       // (name) -> pair<u64 version, vector<bytes>>
    kReportDead = 9,       // (name, dead ref: bytes) -> u64 (dropped)
    kResolveVersioned = 10,  // (name) -> pair<u64 version, bytes>
    kFetchUpdates = 11,  // (since: u64) -> pair<u64 seq, vector<NameSnapshot>>
  };

  /// A primary accepts mutations and serves the catch-up stream; a
  /// standby answers resolves from its replicated state but refuses every
  /// mutation with ObjectError(not_primary) carrying a redirect hint.
  enum class Role { primary, standby };

  NameServiceServant();

  std::string_view type_name() const noexcept override { return kTypeName; }
  void dispatch(std::uint32_t method_id, wire::Decoder& in,
                wire::Encoder& out) override;

  // Local (in-process) API, used directly by the hosting server.
  void bind(const std::string& name, const orb::ObjectRef& ref,
            bool rebind = false);
  std::optional<orb::ObjectRef> resolve(const std::string& name) const;
  bool unbind(const std::string& name);
  std::vector<std::string> list(const std::string& prefix) const;
  std::size_t size() const;

  // -- replica sets + leases --

  /// Adds `ref` as a replica of `name` under a `ttl`-long lease (renewed
  /// by heartbeats; ttl zero = no lease, never expires).  Returns the
  /// replica id the registrant heartbeats with.
  std::uint64_t bind_replica(const std::string& name,
                             const orb::ObjectRef& ref,
                             std::chrono::milliseconds ttl);

  /// Renews one leased replica's lease (a zero TTL renews nothing); a
  /// permanent registration stays permanent.  False when the registration
  /// is gone (expired and swept, or the daemon restarted) — re-register.
  bool heartbeat(const std::string& name, std::uint64_t replica_id,
                 std::chrono::milliseconds ttl);

  /// Withdraws one replica (clean shutdown).  False when unknown.
  bool unbind_replica(const std::string& name, std::uint64_t replica_id);

  /// Every live replica of `name`, with the entry version the set was
  /// read at.  Unbound names answer {version, empty}.
  std::pair<std::uint64_t, std::vector<orb::ObjectRef>> resolve_all(
      const std::string& name) const;

  /// resolve() plus the entry version (std::nullopt when unbound).
  std::optional<std::pair<std::uint64_t, orb::ObjectRef>> resolve_versioned(
      const std::string& name) const;

  /// A client observed the replica behind `dead` down (connection refused
  /// / reset mid-call).  Drops registrations matching it (same_replica) —
  /// failover must not wait out the lease.  Returns how many dropped.
  std::size_t report_dead(const std::string& name, const orb::ObjectRef& dead);

  /// Entry version of `name`: bumped by every mutation (bind, replica
  /// join/leave, expiry, dead report).  Survives unbind so a re-created
  /// name never reuses a version a cache may still hold.  0 = never bound.
  std::uint64_t version_of(const std::string& name) const;

  /// Purges expired replicas across all names (the daemon's periodic
  /// sweep; resolve paths also purge lazily).  Returns replicas dropped.
  std::size_t sweep_expired();

  // -- replication (naming/replication.hpp, docs/deployment.md) --

  Role role() const;
  void set_role(Role role);

  /// Static fallback for the not_primary redirect hint when no live
  /// `__primary` binding exists yet ("host:port"; the standby daemon sets
  /// its --peer coordinate here).
  void set_primary_hint(const std::string& host_port);

  /// The catch-up stream: a whole-entry snapshot of every name mutated
  /// after `since` (a mutation sequence previously returned by this
  /// method; 0 = everything, i.e. a full snapshot on join), plus — always
  /// — the `__primary` entry, whose lease freshness is what the standby's
  /// promotion decision reads.  Returns {current sequence, snapshots}.
  /// Sequences carry this servant's random incarnation in their high 32
  /// bits, so a `since` minted before a restart is answered with a full
  /// snapshot (never-rollback makes the resend safe).
  std::pair<std::uint64_t, std::vector<NameSnapshot>> fetch_updates(
      std::uint64_t since);

  /// Applies one snapshot — a peer's catch-up update or a recovered
  /// journal record: skipped entirely when it would roll the entry version
  /// back; an equal-version snapshot still refreshes lease remaining times
  /// (heartbeats do not bump versions).  A snapshot that advances the
  /// entry is journaled.  Returns true when applied.
  bool apply_update(const NameSnapshot& snapshot);

  // -- persistence (naming/journal.hpp) --

  /// Journals the durable slice of every entry whose version moves from
  /// now on.  Attach after replaying the recovered records through
  /// apply_update(), so replay is not re-written.
  void attach_journal(std::shared_ptr<Journal> journal);

  /// One durable snapshot per known name: its version and its permanent
  /// replicas — what the daemon passes to Journal::compact() on boot.
  std::vector<NameSnapshot> journal_snapshot() const;

 private:
  struct Entry {
    std::vector<ReplicaRecord> replicas;
  };

  /// bind_replica() and heartbeat() with the TTL as the u64 a peer sends
  /// (dispatch() calls these): zero is no lease, and a TTL past a year
  /// leases for a year (LeaseCapability::kLongestMs).
  std::uint64_t bind_replica(const std::string& name,
                             const orb::ObjectRef& ref, std::uint64_t ttl_ms);
  bool heartbeat(const std::string& name, std::uint64_t replica_id,
                 std::uint64_t ttl_ms);

  /// Drops expired replicas of one entry; bumps the version when anything
  /// went.  Returns the number dropped.  const because lease expiry makes
  /// every read path a potential pruner (entries_ et al. are mutable).
  std::size_t prune_locked(const std::string& name, Entry& entry) const
      OHPX_REQUIRES(mutex_);
  void bump_version_locked(const std::string& name) const
      OHPX_REQUIRES(mutex_);
  void refresh_live_gauge_locked() const OHPX_REQUIRES(mutex_);
  /// Throws ObjectError(not_primary) with the redirect hint on a standby.
  void require_primary_locked(const char* op) const OHPX_REQUIRES(mutex_);
  /// Where the current primary is, for redirects: the live `__primary`
  /// binding's home endpoint, else the static hint.  Empty when unknown.
  std::string primary_endpoint_locked() const OHPX_REQUIRES(mutex_);
  /// `name`'s entry at its current version; `durable` keeps only the
  /// permanent replicas (the journal's slice).
  NameSnapshot snapshot_locked(const std::string& name,
                               bool durable = false) const
      OHPX_REQUIRES(mutex_);
  /// Appends `name`'s durable slice (no-op without an attached journal).
  void journal_locked(const std::string& name) const OHPX_REQUIRES(mutex_);

  mutable sync::Mutex mutex_{"naming.directory"};
  mutable std::map<std::string, Entry> entries_ OHPX_GUARDED_BY(mutex_);
  /// Never-erased per-name version floor (see version_of()).
  mutable std::map<std::string, std::uint64_t> versions_
      OHPX_GUARDED_BY(mutex_);
  std::uint64_t next_replica_id_ OHPX_GUARDED_BY(mutex_) = 1;
  Role role_ OHPX_GUARDED_BY(mutex_) = Role::primary;
  std::string primary_hint_ OHPX_GUARDED_BY(mutex_);
  /// Global mutation sequence + never-erased per-name last-mutation marks:
  /// what fetch_updates() diffs against.  bump_version_locked advances
  /// both (on a primary); apply_update stamps them too, so a promoted
  /// standby can itself serve the catch-up stream.  Starts at the
  /// incarnation (a random nonzero value << 32; see fetch_updates()).
  mutable std::uint64_t mutation_seq_ OHPX_GUARDED_BY(mutex_);
  mutable std::map<std::string, std::uint64_t> mutated_at_
      OHPX_GUARDED_BY(mutex_);
  std::shared_ptr<Journal> journal_ OHPX_GUARDED_BY(mutex_);

  // Interned naming.* metrics (metric_names.hpp): the exporter and
  // ohpx-top render these without knowing about the naming layer.
  metrics::MetricsRegistry::Counter* binds_;
  metrics::MetricsRegistry::Counter* resolves_;
  metrics::MetricsRegistry::Counter* heartbeats_;
  metrics::MetricsRegistry::Counter* expired_;
  metrics::MetricsRegistry::Counter* dead_reports_;
  metrics::MetricsRegistry::Counter* replicas_live_;  // gauge (stored)
  metrics::MetricsRegistry::Counter* redirects_;
};

/// Typed client stub for the directory.
class NameServiceStub : public orb::ObjectStub {
 public:
  static constexpr std::string_view kTypeName = NameServiceServant::kTypeName;
  using ObjectStub::ObjectStub;

  void bind(const std::string& name, const orb::ObjectRef& ref,
            bool rebind = false) {
    call<void>(NameServiceServant::kBind, name, ref.to_bytes(), rebind);
  }

  /// Throws ObjectError(object_not_found) for unbound names.
  orb::ObjectRef resolve(const std::string& name) {
    const Bytes raw = call<Bytes>(NameServiceServant::kResolve, name);
    return orb::ObjectRef::from_bytes(raw);
  }

  /// As resolve(), also returning the entry version the reply was read
  /// at (the staleness token NameClient caches against).
  std::pair<std::uint64_t, orb::ObjectRef> resolve_versioned(
      const std::string& name) {
    auto [version, raw] = call<std::pair<std::uint64_t, Bytes>>(
        NameServiceServant::kResolveVersioned, name);
    return {version, orb::ObjectRef::from_bytes(raw)};
  }

  bool unbind(const std::string& name) {
    return call<bool>(NameServiceServant::kUnbind, name);
  }

  std::vector<std::string> list(const std::string& prefix = "") {
    return call<std::vector<std::string>>(NameServiceServant::kList, prefix);
  }

  std::uint64_t bind_replica(const std::string& name,
                             const orb::ObjectRef& ref,
                             std::chrono::milliseconds ttl) {
    return call<std::uint64_t>(NameServiceServant::kBindReplica, name,
                               ref.to_bytes(),
                               static_cast<std::uint64_t>(ttl.count()));
  }

  bool heartbeat(const std::string& name, std::uint64_t replica_id,
                 std::chrono::milliseconds ttl) {
    return call<bool>(NameServiceServant::kHeartbeat, name, replica_id,
                      static_cast<std::uint64_t>(ttl.count()));
  }

  bool unbind_replica(const std::string& name, std::uint64_t replica_id) {
    return call<bool>(NameServiceServant::kUnbindReplica, name, replica_id);
  }

  std::pair<std::uint64_t, std::vector<orb::ObjectRef>> resolve_all(
      const std::string& name) {
    auto [version, raws] = call<std::pair<std::uint64_t, std::vector<Bytes>>>(
        NameServiceServant::kResolveAll, name);
    std::vector<orb::ObjectRef> refs;
    refs.reserve(raws.size());
    for (const Bytes& raw : raws) refs.push_back(orb::ObjectRef::from_bytes(raw));
    return {version, std::move(refs)};
  }

  std::uint64_t report_dead(const std::string& name,
                            const orb::ObjectRef& dead) {
    return call<std::uint64_t>(NameServiceServant::kReportDead, name,
                               dead.to_bytes());
  }

  /// Catch-up stream poll (standby → primary; naming/replication.hpp).
  std::pair<std::uint64_t, std::vector<NameSnapshot>> fetch_updates(
      std::uint64_t since) {
    return call<std::pair<std::uint64_t, std::vector<NameSnapshot>>>(
        NameServiceServant::kFetchUpdates, since);
  }
};

using NamePointer = orb::GlobalPointer<NameServiceStub>;

/// Convenience host: activates a directory in `context` and mints its
/// bootstrap reference (default table: shm + nexus, plus tcp if enabled).
class NameServiceHost {
 public:
  explicit NameServiceHost(orb::Context& context);

  NameServiceServant& service() noexcept { return *servant_; }
  const orb::ObjectRef& ref() const noexcept { return ref_; }

 private:
  std::shared_ptr<NameServiceServant> servant_;
  orb::ObjectRef ref_;
};

}  // namespace ohpx::naming
