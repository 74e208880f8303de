// NameClient: the caching client face of the directory (satellite of the
// multi-process deployment work, but useful in-process too).
//
// resolve() memoizes {reference, entry version} per name, so steady-state
// lookups cost a map probe instead of a remote call.  The version is the
// staleness token: the directory bumps it on *every* mutation of a name,
// and resolve replies carry it, so a cache refresh can tell whether the
// world moved underneath it.  invalidate(name) drops one cached entry —
// failover clients call it when a replica dies so the next resolve goes
// back to the directory.
//
// Replicated directories (docs/deployment.md, "Replicated directory"):
// the client accepts a *list* of bootstrap endpoints and walks it when
// the one it is talking to dies (transport error other than
// backpressure).  A standby refuses mutations with
// ObjectError(not_primary) carrying `primary=<host:port>`; the client
// follows that redirect transparently, so write-through mutations always
// land on the current primary no matter which endpoint answered.
//
// Thread-safe; one NameClient is typically shared by every stub a process
// binds through it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::naming {

class NameClient {
 public:
  /// Binds to the directory at `bootstrap` (typically from
  /// bootstrap_from_uri() or NameServiceHost::ref()).
  NameClient(orb::Context& context, orb::ObjectRef bootstrap);

  /// Binds to a directory replica set: `endpoints` in preference order
  /// (the first is dialed initially).  Must be non-empty.
  NameClient(orb::Context& context, std::vector<orb::ObjectRef> endpoints);

  /// Convenience: parses a bootstrap URI — host:port, a reference file,
  /// or a comma-separated list of either (bootstrap_refs_from_uri).
  NameClient(orb::Context& context, const std::string& bootstrap_uri);

  /// A snapshot of the directory stub currently in use (uncached
  /// operations; copies share call state with the live stub).
  NameServiceStub directory() const;

  /// Endpoints this client can walk (≥ 1).
  std::size_t endpoint_count() const;

  /// Cached resolve.  A hit answers from memory; a miss asks the
  /// directory and remembers {ref, version}.  Throws
  /// ObjectError(object_not_found) for unbound names.
  orb::ObjectRef resolve(const std::string& name);

  /// Bypasses and refills the cache (always a remote call).
  orb::ObjectRef resolve_fresh(const std::string& name);

  /// Every live replica of `name` plus the entry version; never cached —
  /// failover wants the directory's current truth.
  std::pair<std::uint64_t, std::vector<orb::ObjectRef>> resolve_all(
      const std::string& name);

  /// Drops one cached entry; the next resolve() re-asks the directory.
  void invalidate(const std::string& name);

  /// Version the cache holds for `name` (nullopt = not cached).
  std::optional<std::uint64_t> cached_version(const std::string& name) const;

  // Write-through passthroughs (mutations invalidate the local cache so a
  // process never serves its own stale write).
  void bind(const std::string& name, const orb::ObjectRef& ref,
            bool rebind = false);
  bool unbind(const std::string& name);
  std::uint64_t bind_replica(const std::string& name,
                             const orb::ObjectRef& ref,
                             std::chrono::milliseconds ttl);
  bool heartbeat(const std::string& name, std::uint64_t replica_id,
                 std::chrono::milliseconds ttl);
  bool unbind_replica(const std::string& name, std::uint64_t replica_id);
  std::uint64_t report_dead(const std::string& name,
                            const orb::ObjectRef& dead);

 private:
  struct CacheEntry {
    Bytes ref;
    std::uint64_t version = 0;
  };

  /// Runs `fn(stub)` against the directory, walking endpoints on
  /// transport loss and following not_primary redirects.  The stub is a
  /// cheap copy taken under the lock; the call itself runs unlocked.
  template <typename Fn>
  auto with_directory(Fn&& fn) -> decltype(fn(std::declval<NameServiceStub&>()));

  /// Advances to the next bootstrap endpoint (round-robin).  Returns
  /// false once every endpoint has been tried for this operation.
  bool advance_endpoint(std::size_t& walked);
  /// Retargets the stub at `host:port` after a not_primary redirect.
  void follow_redirect(const std::string& host, std::uint16_t port);

  orb::Context& context_;
  mutable sync::Mutex mutex_{"naming.client_cache"};
  std::vector<Bytes> endpoints_ OHPX_GUARDED_BY(mutex_);
  std::size_t active_endpoint_ OHPX_GUARDED_BY(mutex_) = 0;
  NameServiceStub stub_ OHPX_GUARDED_BY(mutex_);
  std::map<std::string, CacheEntry> cache_ OHPX_GUARDED_BY(mutex_);
  metrics::MetricsRegistry::Counter* cache_hits_;
  metrics::MetricsRegistry::Counter* cache_misses_;
};

}  // namespace ohpx::naming
