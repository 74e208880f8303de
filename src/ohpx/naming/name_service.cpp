#include "ohpx/naming/name_service.hpp"

#include <algorithm>
#include <random>

#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::naming {
namespace {

// A TTL as the u64 a peer sends: zero is a permanent registration, and
// LeaseCapability clamps any other to a year, so no value wraps.
std::shared_ptr<cap::LeaseCapability> make_lease(std::uint64_t ttl_ms) {
  if (ttl_ms == 0) return nullptr;  // permanent registration
  return std::make_shared<cap::LeaseCapability>(ttl_ms);
}

// A local caller's TTL: a negative one registers permanently, as zero does.
std::uint64_t ttl_ms_of(std::chrono::milliseconds ttl) {
  return ttl.count() <= 0 ? 0 : static_cast<std::uint64_t>(ttl.count());
}

/// The high half of every catch-up sequence one servant mints.
std::uint64_t fresh_incarnation() {
  std::random_device entropy;
  std::uint32_t incarnation = 0;
  while (incarnation == 0) incarnation = entropy();
  return std::uint64_t{incarnation} << 32;
}

}  // namespace

NameServiceServant::NameServiceServant()
    : mutation_seq_(fresh_incarnation()) {
  auto& registry = metrics::MetricsRegistry::global();
  binds_ = registry.counter_handle(metrics::names::kNamingBinds);
  resolves_ = registry.counter_handle(metrics::names::kNamingResolves);
  heartbeats_ = registry.counter_handle(metrics::names::kNamingHeartbeats);
  expired_ = registry.counter_handle(metrics::names::kNamingExpired);
  dead_reports_ = registry.counter_handle(metrics::names::kNamingDeadReports);
  replicas_live_ = registry.counter_handle(metrics::names::kNamingReplicasLive);
  redirects_ = registry.counter_handle(metrics::names::kNamingRedirects);
}

void NameServiceServant::dispatch(std::uint32_t method_id, wire::Decoder& in,
                                  wire::Encoder& out) {
  switch (method_id) {
    case kBind: {
      auto [name, raw, rebind] = orb::unmarshal<std::string, Bytes, bool>(in);
      bind(name, orb::ObjectRef::from_bytes(raw), rebind);
      return;
    }
    case kResolve: {
      auto [name] = orb::unmarshal<std::string>(in);
      const auto ref = resolve(name);
      if (!ref) {
        throw ObjectError(ErrorCode::object_not_found,
                          "no binding for name '" + name + "'");
      }
      orb::marshal_result(out, ref->to_bytes());
      return;
    }
    case kUnbind: {
      auto [name] = orb::unmarshal<std::string>(in);
      orb::marshal_result(out, unbind(name));
      return;
    }
    case kList: {
      auto [prefix] = orb::unmarshal<std::string>(in);
      orb::marshal_result(out, list(prefix));
      return;
    }
    case kBindReplica: {
      auto [name, raw, ttl_ms] =
          orb::unmarshal<std::string, Bytes, std::uint64_t>(in);
      orb::marshal_result(
          out, bind_replica(name, orb::ObjectRef::from_bytes(raw), ttl_ms));
      return;
    }
    case kHeartbeat: {
      auto [name, replica_id, ttl_ms] =
          orb::unmarshal<std::string, std::uint64_t, std::uint64_t>(in);
      orb::marshal_result(out, heartbeat(name, replica_id, ttl_ms));
      return;
    }
    case kUnbindReplica: {
      auto [name, replica_id] = orb::unmarshal<std::string, std::uint64_t>(in);
      orb::marshal_result(out, unbind_replica(name, replica_id));
      return;
    }
    case kResolveAll: {
      auto [name] = orb::unmarshal<std::string>(in);
      auto [version, refs] = resolve_all(name);
      std::vector<Bytes> raws;
      raws.reserve(refs.size());
      for (const auto& ref : refs) raws.push_back(ref.to_bytes());
      orb::marshal_result(out, std::make_pair(version, std::move(raws)));
      return;
    }
    case kReportDead: {
      auto [name, raw] = orb::unmarshal<std::string, Bytes>(in);
      orb::marshal_result(
          out, static_cast<std::uint64_t>(
                   report_dead(name, orb::ObjectRef::from_bytes(raw))));
      return;
    }
    case kResolveVersioned: {
      auto [name] = orb::unmarshal<std::string>(in);
      const auto hit = resolve_versioned(name);
      if (!hit) {
        throw ObjectError(ErrorCode::object_not_found,
                          "no binding for name '" + name + "'");
      }
      orb::marshal_result(out,
                          std::make_pair(hit->first, hit->second.to_bytes()));
      return;
    }
    case kFetchUpdates: {
      auto [since] = orb::unmarshal<std::uint64_t>(in);
      orb::marshal_result(out, fetch_updates(since));
      return;
    }
    default:
      orb::unknown_method(kTypeName, method_id);
  }
}

void NameServiceServant::bind(const std::string& name,
                              const orb::ObjectRef& ref, bool rebind) {
  if (!ref.valid()) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot bind an invalid reference");
  }
  sync::LockGuard lock(mutex_);
  require_primary_locked("bind");
  binds_->fetch_add(1, std::memory_order_relaxed);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    prune_locked(name, it->second);
    if (!it->second.replicas.empty() && !rebind) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "name '" + name + "' is already bound");
    }
  }
  // Plain bind replaces the whole replica set with one permanent record.
  Entry& entry = entries_[name];
  entry.replicas.clear();
  entry.replicas.push_back(
      ReplicaRecord{next_replica_id_++, ref.to_bytes(), nullptr});
  bump_version_locked(name);
  refresh_live_gauge_locked();
}

std::optional<orb::ObjectRef> NameServiceServant::resolve(
    const std::string& name) const {
  const auto hit = resolve_versioned(name);
  if (!hit) return std::nullopt;
  return hit->second;
}

std::optional<std::pair<std::uint64_t, orb::ObjectRef>>
NameServiceServant::resolve_versioned(const std::string& name) const {
  resolves_->fetch_add(1, std::memory_order_relaxed);
  sync::LockGuard lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  if (prune_locked(name, it->second) > 0 && it->second.replicas.empty()) {
    entries_.erase(it);
    refresh_live_gauge_locked();
    return std::nullopt;
  }
  const auto version_it = versions_.find(name);
  return std::make_pair(
      version_it == versions_.end() ? 0 : version_it->second,
      orb::ObjectRef::from_bytes(it->second.replicas.front().ref));
}

bool NameServiceServant::unbind(const std::string& name) {
  sync::LockGuard lock(mutex_);
  require_primary_locked("unbind");
  const bool existed = entries_.erase(name) != 0;
  if (existed) {
    bump_version_locked(name);
    refresh_live_gauge_locked();
  }
  return existed;
}

std::vector<std::string> NameServiceServant::list(
    const std::string& prefix) const {
  sync::LockGuard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : entries_) {
    const bool any_live =
        std::any_of(entry.replicas.begin(), entry.replicas.end(),
                    [](const ReplicaRecord& r) { return r.live(); });
    if (!any_live) continue;
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

std::size_t NameServiceServant::size() const {
  sync::LockGuard lock(mutex_);
  std::size_t count = 0;
  for (const auto& [name, entry] : entries_) {
    count += std::any_of(entry.replicas.begin(), entry.replicas.end(),
                         [](const ReplicaRecord& r) { return r.live(); })
                 ? 1
                 : 0;
  }
  return count;
}

std::uint64_t NameServiceServant::bind_replica(const std::string& name,
                                               const orb::ObjectRef& ref,
                                               std::chrono::milliseconds ttl) {
  return bind_replica(name, ref, ttl_ms_of(ttl));
}

std::uint64_t NameServiceServant::bind_replica(const std::string& name,
                                               const orb::ObjectRef& ref,
                                               std::uint64_t ttl_ms) {
  if (!ref.valid()) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot bind an invalid reference");
  }
  sync::LockGuard lock(mutex_);
  require_primary_locked("bind_replica");
  binds_->fetch_add(1, std::memory_order_relaxed);
  Entry& entry = entries_[name];
  prune_locked(name, entry);
  const std::uint64_t replica_id = next_replica_id_++;
  entry.replicas.push_back(ReplicaRecord{replica_id, ref.to_bytes(),
                                         make_lease(ttl_ms)});
  bump_version_locked(name);
  refresh_live_gauge_locked();
  return replica_id;
}

bool NameServiceServant::heartbeat(const std::string& name,
                                   std::uint64_t replica_id,
                                   std::chrono::milliseconds ttl) {
  return heartbeat(name, replica_id, ttl_ms_of(ttl));
}

bool NameServiceServant::heartbeat(const std::string& name,
                                   std::uint64_t replica_id,
                                   std::uint64_t ttl_ms) {
  sync::LockGuard lock(mutex_);
  require_primary_locked("heartbeat");
  heartbeats_->fetch_add(1, std::memory_order_relaxed);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  for (ReplicaRecord& record : it->second.replicas) {
    if (record.replica_id != replica_id) continue;
    if (!record.live()) break;  // lease already ran out: re-register
    // Renewal = a fresh lease; heartbeats never resurrect expired records,
    // so a partitioned server cannot sneak back without re-registering.
    // Nor do they change a registration's kind, which no version bump
    // would carry to the journal or a standby: a permanent one renews
    // nothing, and a zero TTL renews nothing.
    if (record.lease && ttl_ms > 0) record.lease = make_lease(ttl_ms);
    return true;
  }
  return false;
}

bool NameServiceServant::unbind_replica(const std::string& name,
                                        std::uint64_t replica_id) {
  sync::LockGuard lock(mutex_);
  require_primary_locked("unbind_replica");
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  auto& replicas = it->second.replicas;
  const auto match = std::find_if(
      replicas.begin(), replicas.end(),
      [&](const ReplicaRecord& r) { return r.replica_id == replica_id; });
  if (match == replicas.end()) return false;
  replicas.erase(match);
  if (replicas.empty()) entries_.erase(it);
  bump_version_locked(name);
  refresh_live_gauge_locked();
  return true;
}

std::pair<std::uint64_t, std::vector<orb::ObjectRef>>
NameServiceServant::resolve_all(const std::string& name) const {
  resolves_->fetch_add(1, std::memory_order_relaxed);
  sync::LockGuard lock(mutex_);
  std::vector<orb::ObjectRef> refs;
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (prune_locked(name, it->second) > 0 && it->second.replicas.empty()) {
      entries_.erase(it);
      refresh_live_gauge_locked();
    } else {
      refs.reserve(it->second.replicas.size());
      for (const ReplicaRecord& record : it->second.replicas) {
        refs.push_back(orb::ObjectRef::from_bytes(record.ref));
      }
    }
  }
  const auto version_it = versions_.find(name);
  const std::uint64_t version =
      version_it == versions_.end() ? 0 : version_it->second;
  return {version, std::move(refs)};
}

std::size_t NameServiceServant::report_dead(const std::string& name,
                                            const orb::ObjectRef& dead) {
  sync::LockGuard lock(mutex_);
  require_primary_locked("report_dead");
  dead_reports_->fetch_add(1, std::memory_order_relaxed);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return 0;
  auto& replicas = it->second.replicas;
  const std::size_t before = replicas.size();
  replicas.erase(
      std::remove_if(replicas.begin(), replicas.end(),
                     [&](const ReplicaRecord& record) {
                       return same_replica(
                           orb::ObjectRef::from_bytes(record.ref), dead);
                     }),
      replicas.end());
  const std::size_t dropped = before - replicas.size();
  if (dropped > 0) {
    if (replicas.empty()) entries_.erase(it);
    bump_version_locked(name);
    refresh_live_gauge_locked();
  }
  return dropped;
}

std::uint64_t NameServiceServant::version_of(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

std::size_t NameServiceServant::sweep_expired() {
  sync::LockGuard lock(mutex_);
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    dropped += prune_locked(it->first, it->second);
    it = it->second.replicas.empty() ? entries_.erase(it) : std::next(it);
  }
  if (dropped > 0) refresh_live_gauge_locked();
  return dropped;
}

std::size_t NameServiceServant::prune_locked(const std::string& name,
                                             Entry& entry) const {
  const std::size_t before = entry.replicas.size();
  entry.replicas.erase(
      std::remove_if(entry.replicas.begin(), entry.replicas.end(),
                     [](const ReplicaRecord& r) { return !r.live(); }),
      entry.replicas.end());
  const std::size_t dropped = before - entry.replicas.size();
  if (dropped > 0) {
    expired_->fetch_add(dropped, std::memory_order_relaxed);
    // Only a primary owns the version sequence.  A standby dropping an
    // expired *replicated* lease must not outrun the primary's version,
    // or the next catch-up snapshot would look like a rollback and be
    // skipped forever.
    if (role_ == Role::primary) bump_version_locked(name);
  }
  return dropped;
}

void NameServiceServant::bump_version_locked(const std::string& name) const {
  ++versions_[name];
  mutated_at_[name] = ++mutation_seq_;
  journal_locked(name);
}

NameServiceServant::Role NameServiceServant::role() const {
  sync::LockGuard lock(mutex_);
  return role_;
}

void NameServiceServant::set_role(Role role) {
  sync::LockGuard lock(mutex_);
  role_ = role;
}

void NameServiceServant::set_primary_hint(const std::string& host_port) {
  sync::LockGuard lock(mutex_);
  primary_hint_ = host_port;
}

std::string NameServiceServant::primary_endpoint_locked() const {
  const auto it = entries_.find(kPrimaryName);
  if (it != entries_.end()) {
    for (const ReplicaRecord& record : it->second.replicas) {
      if (!record.live()) continue;
      const orb::ObjectRef ref = orb::ObjectRef::from_bytes(record.ref);
      return ref.home().tcp_host + ":" + std::to_string(ref.home().tcp_port);
    }
  }
  return primary_hint_;
}

void NameServiceServant::require_primary_locked(const char* op) const {
  if (role_ == Role::primary) return;
  redirects_->fetch_add(1, std::memory_order_relaxed);
  const std::string where = primary_endpoint_locked();
  throw ObjectError(ErrorCode::not_primary,
                    std::string("directory standby refuses ") + op +
                        "; primary=" + (where.empty() ? "?" : where));
}

NameSnapshot NameServiceServant::snapshot_locked(const std::string& name,
                                                 bool durable) const {
  NameSnapshot snap;
  snap.name = name;
  const auto version_it = versions_.find(name);
  snap.version = version_it == versions_.end() ? 0 : version_it->second;
  const auto it = entries_.find(name);
  if (it == entries_.end()) return snap;
  for (const ReplicaRecord& record : it->second.replicas) {
    // Leased registrations die with the run: their owners re-register.
    if (durable && record.lease) continue;
    snap.replicas.push_back(ReplicaSnapshot{
        record.replica_id, record.ref, record.lease == nullptr,
        record.lease
            ? static_cast<std::uint64_t>(record.lease->remaining().count())
            : 0});
  }
  return snap;
}

std::pair<std::uint64_t, std::vector<NameSnapshot>>
NameServiceServant::fetch_updates(std::uint64_t since) {
  sync::LockGuard lock(mutex_);
  // A `since` from another incarnation (this servant's process restarted)
  // says nothing about what the follower holds: resend everything.
  if ((since ^ mutation_seq_) >> 32 != 0) since = 0;
  std::vector<NameSnapshot> updates;
  bool primary_included = false;
  for (const auto& [name, seq] : mutated_at_) {
    if (seq <= since) continue;
    updates.push_back(snapshot_locked(name));
    primary_included = primary_included || name == kPrimaryName;
  }
  // The `__primary` snapshot rides along on *every* poll, changed or not:
  // heartbeats renew its lease without bumping the version, and the
  // standby's promotion decision is exactly that lease's freshness.
  if (!primary_included && entries_.count(kPrimaryName) != 0) {
    updates.push_back(snapshot_locked(kPrimaryName));
  }
  return {mutation_seq_, std::move(updates)};
}

bool NameServiceServant::apply_update(const NameSnapshot& snapshot) {
  sync::LockGuard lock(mutex_);
  const auto version_it = versions_.find(snapshot.name);
  const std::uint64_t local =
      version_it == versions_.end() ? 0 : version_it->second;
  if (snapshot.version < local) return false;  // never roll a version back
  versions_[snapshot.name] = snapshot.version;
  if (snapshot.replicas.empty()) {
    entries_.erase(snapshot.name);
  } else {
    Entry& entry = entries_[snapshot.name];
    entry.replicas.clear();
    entry.replicas.reserve(snapshot.replicas.size());
    for (const ReplicaSnapshot& replica : snapshot.replicas) {
      entry.replicas.push_back(ReplicaRecord{
          replica.replica_id, replica.ref,
          replica.permanent ? nullptr
                            : std::make_shared<cap::LeaseCapability>(
                                  replica.lease_remaining_ms)});
      next_replica_id_ = std::max(next_replica_id_, replica.replica_id + 1);
    }
  }
  mutated_at_[snapshot.name] = ++mutation_seq_;
  // A standby journals what it applies, so its own restart (or one after
  // promotion) also recovers the namespace.  An equal version only
  // refreshed leases, which are not durable.
  if (snapshot.version > local) journal_locked(snapshot.name);
  refresh_live_gauge_locked();
  return true;
}

void NameServiceServant::attach_journal(std::shared_ptr<Journal> journal) {
  sync::LockGuard lock(mutex_);
  journal_ = std::move(journal);
}

std::vector<NameSnapshot> NameServiceServant::journal_snapshot() const {
  sync::LockGuard lock(mutex_);
  std::vector<NameSnapshot> records;
  records.reserve(versions_.size());
  for (const auto& known : versions_) {
    records.push_back(snapshot_locked(known.first, /*durable=*/true));
  }
  return records;
}

void NameServiceServant::journal_locked(const std::string& name) const {
  if (journal_) journal_->append(snapshot_locked(name, /*durable=*/true));
}

void NameServiceServant::refresh_live_gauge_locked() const {
  std::uint64_t live = 0;
  for (const auto& [name, entry] : entries_) {
    for (const ReplicaRecord& record : entry.replicas) {
      if (record.live()) ++live;
    }
  }
  replicas_live_->store(live, std::memory_order_relaxed);
}

NameServiceHost::NameServiceHost(orb::Context& context)
    : servant_(std::make_shared<NameServiceServant>()),
      ref_(orb::RefBuilder(context, servant_).build()) {}

}  // namespace ohpx::naming
