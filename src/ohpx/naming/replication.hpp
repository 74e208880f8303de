// Primary/standby replication for the directory (docs/deployment.md,
// "Replicated directory").
//
// The catch-up stream rides the entry versions PR 9 introduced: the
// primary stamps every mutation with a global mutation sequence, and
// `fetch_updates(since)` answers with a whole-entry snapshot of every name
// mutated after `since` — so a standby joining cold (since = 0) gets a
// full snapshot and a caught-up one gets only the delta.  Snapshots carry
// the entry version, and the standby never applies one that would roll a
// version back, which is the same never-rollback contract NameClient's
// cache already enforces.
//
// Promotion is lease-based: the primary keeps a heartbeat-renewed lease on
// the well-known `__primary` name (bound to its own bootstrap ref).  The
// replicated copy of that lease keeps ticking on the standby; when the
// primary dies, polls stop refreshing it, the copy expires, and the
// standby promotes itself.
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/bytes.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::naming {

// (ReplicaSnapshot / NameSnapshot live in journal.hpp — the journal's
// record is the stream's unit — and kPrimaryName in name_service.hpp.)

struct ReplicatorConfig {
  /// Catch-up poll cadence against the primary.
  std::chrono::milliseconds poll_interval{200};
  /// TTL of the primary's `__primary` lease; also how long a standby that
  /// never reached its peer waits before assuming the seat is vacant.
  std::chrono::milliseconds primary_ttl{2000};
};

/// Runs the standby side: polls the primary's catch-up stream into the
/// local servant and promotes it when the `__primary` lease lapses.  After
/// promotion the poll loop exits and the daemon takes over primary duties
/// (binding `__primary`, renewing its lease).
class Replicator {
 public:
  /// `peer` is the primary's bootstrap ref; `local` must be in standby
  /// role.  Calls run through `context`'s transports.
  Replicator(orb::Context& context, NameServiceServant& local,
             orb::ObjectRef peer, ReplicatorConfig config);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  void start();
  void stop();

  /// True once the standby took the primary role (loop has exited).
  bool promoted() const noexcept {
    return promoted_.load(std::memory_order_acquire);
  }
  std::uint64_t syncs() const noexcept {
    return syncs_.load(std::memory_order_relaxed);
  }

  /// One poll + promotion check, factored out of the thread loop so tests
  /// can drive replication deterministically on a ManualClock.  Returns
  /// true when the poll reached the primary.
  bool poll_once();

 private:
  bool promotion_due();

  NameServiceServant& local_;
  NameServiceStub peer_;
  ReplicatorConfig config_;
  std::uint64_t last_seq_ = 0;
  bool ever_synced_ = false;
  std::int64_t started_ns_ = 0;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<std::uint64_t> syncs_{0};

  metrics::MetricsRegistry::Counter* sync_counter_ = nullptr;
  metrics::MetricsRegistry::Counter* update_counter_ = nullptr;
};

}  // namespace ohpx::naming
