// Append-only persistence journal for the directory (docs/deployment.md,
// "Persistence").  Its record is the catch-up stream's NameSnapshot cut to
// its durable slice: the entry version and the permanent replicas.  The
// directory appends one at every version bump, so a restart neither empties
// the namespace nor hands out a version a client cache already holds, and
// replay is NameServiceServant::apply_update over the recovered records —
// the same apply function, and the same never-rollback check, a standby
// runs over its peer's stream.
//
// On-disk framing: the 8-byte file magic "OHPXJNL2", then one frame per
// record —
//   u32 payload length | u32 FNV-1a checksum | wire-encoded NameSnapshot
// Appends go through a single write() + flush, so a crash can only tear
// the *last* frame.  recover() keeps every complete frame and drops the
// torn tail (that mutation was never acknowledged durable).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/bytes.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::naming {

/// One replica inside a NameSnapshot.  Leases travel as *remaining*
/// milliseconds — the same transfer rule LeaseCapability descriptors use —
/// so the standby's reconstructed lease expires when the original would.
/// A journaled replica is always permanent.
struct ReplicaSnapshot {
  std::uint64_t replica_id = 0;
  Bytes ref;
  bool permanent = false;
  std::uint64_t lease_remaining_ms = 0;

  void wire_serialize(wire::Encoder& enc) const {
    enc.put_u64(replica_id);
    enc.put_bytes(ref);
    enc.put_bool(permanent);
    enc.put_u64(lease_remaining_ms);
  }
  static ReplicaSnapshot wire_deserialize(wire::Decoder& dec) {
    ReplicaSnapshot snap;
    snap.replica_id = dec.get_u64();
    snap.ref = dec.get_bytes();
    snap.permanent = dec.get_bool();
    snap.lease_remaining_ms = dec.get_u64();
    return snap;
  }
};

/// Whole-entry snapshot of one name at one version: the catch-up stream's
/// unit and the journal's record.  An empty replica list means the name is
/// unbound (the snapshot still carries the version floor, so deletions
/// replicate and persist without ever rolling a version back).
struct NameSnapshot {
  std::string name;
  std::uint64_t version = 0;
  std::vector<ReplicaSnapshot> replicas;

  void wire_serialize(wire::Encoder& enc) const {
    enc.put_string(name);
    enc.put_u64(version);
    wire::serialize(enc, replicas);
  }
  static NameSnapshot wire_deserialize(wire::Decoder& dec) {
    NameSnapshot snap;
    snap.name = dec.get_string();
    snap.version = dec.get_u64();
    snap.replicas = wire::deserialize<std::vector<ReplicaSnapshot>>(dec);
    return snap;
  }
};

/// Append handle plus the static recover/compact pair.  A default-built
/// Journal is disabled: append() is a no-op, so the servant can hook one
/// unconditionally.  Thread-safe (the directory appends under its own
/// lock, but the daemon also compacts from the main thread).
class Journal {
 public:
  Journal() = default;

  /// Opens `path` for appending, writing the file magic when the file is
  /// new/empty.  Throws ObjectError(bad_object_ref) when unwritable.
  explicit Journal(const std::string& path);

  bool enabled() const noexcept { return !path_.empty(); }
  const std::string& path() const noexcept { return path_; }

  /// Appends one framed record and flushes.
  void append(const NameSnapshot& record);

  std::uint64_t records_written() const;

  /// Replays `path`: every complete, checksum-valid frame in order.  A
  /// missing or empty file is an empty journal (first boot).  A torn or
  /// corrupt tail ends the replay silently — everything before it is
  /// kept.  A non-empty file that does not start with "OHPXJNL2" (a
  /// version-1 journal, a wrong path) throws ObjectError(bad_object_ref):
  /// it is nobody's empty journal to overwrite.
  static std::vector<NameSnapshot> recover(const std::string& path);

  /// Rewrites `path` to hold exactly `records` (temp file + rename, same
  /// atomicity contract as bootstrap ref files).  The daemon compacts on
  /// boot, after replay, so the journal stays proportional to the live
  /// namespace instead of its whole history.
  static void compact(const std::string& path,
                      const std::vector<NameSnapshot>& records);

 private:
  std::string path_;
  mutable sync::Mutex mutex_{"naming.journal"};
  std::ofstream out_ OHPX_GUARDED_BY(mutex_);
  std::uint64_t written_ OHPX_GUARDED_BY(mutex_) = 0;
  metrics::MetricsRegistry::Counter* records_ = nullptr;
};

}  // namespace ohpx::naming
