// Location service: the live object_id → address map that supersedes the
// (immutable) home address baked into each OR.  Migration republishes an
// object under its new context and bumps the per-object epoch; global
// pointers resolve through here on every call, which is what lets a GP
// adapt its protocol choice the moment its server object moves (paper §4.3
// and the Figure 4 experiment).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "ohpx/common/annotations.hpp"
#include "ohpx/protocol/target.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::orb {

using ObjectId = std::uint64_t;

class LocationService {
 public:
  /// Publishes (or republishes) an object's current address.  The stored
  /// epoch increments on every republish.
  void publish(ObjectId object_id, proto::ServerAddress address);

  /// Whether `address` names a TCP endpoint this service never published:
  /// a context of another world, another process's or another World's in
  /// this one, whose object, machine and context ids and endpoint name
  /// are that world's counters and mean nothing here.
  bool foreign(const proto::ServerAddress& address) const;

  /// Current address, or nullopt for unknown objects.
  std::optional<proto::ServerAddress> resolve(ObjectId object_id) const;

  /// Forgets an object (destroyed, not migrated).
  void remove(ObjectId object_id);

  /// Per-object epoch; 0 if unknown.  Cheap staleness probe for caches.
  std::uint64_t epoch_of(ObjectId object_id) const;

  /// Service-wide edit counter: bumped by every publish/remove of *any*
  /// object.  A single atomic load, so per-call cache probes pay nothing
  /// while the world is quiet; when it has moved, callers fall back to
  /// the precise per-object epoch_of() to see whether *their* object was
  /// the one that changed.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  std::size_t size() const;

 private:
  mutable sync::Mutex mutex_{"orb.location"};
  std::map<ObjectId, proto::ServerAddress> addresses_ OHPX_GUARDED_BY(mutex_);
  std::set<std::pair<std::string, std::uint16_t>> tcp_endpoints_
      OHPX_GUARDED_BY(mutex_);  // every one ever published
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace ohpx::orb
