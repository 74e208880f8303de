#include "ohpx/naming/name_client.hpp"

#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/naming/bootstrap.hpp"

namespace ohpx::naming {
namespace {

/// Pulls "host:port" out of a not_primary message ("...; primary=H:P").
std::optional<std::pair<std::string, std::uint16_t>> parse_primary_hint(
    const std::string& message) {
  const auto tag = message.rfind("primary=");
  if (tag == std::string::npos) return std::nullopt;
  std::string where = message.substr(tag + 8);
  const auto end = where.find_first_of(" \t\r\n;");
  if (end != std::string::npos) where.resize(end);
  const auto colon = where.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == where.size()) {
    return std::nullopt;
  }
  int port = 0;
  try {
    port = std::stoi(where.substr(colon + 1));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (port <= 0 || port > 65535) return std::nullopt;
  return std::make_pair(where.substr(0, colon),
                        static_cast<std::uint16_t>(port));
}

}  // namespace

NameClient::NameClient(orb::Context& context,
                       std::vector<orb::ObjectRef> endpoints)
    : context_(context) {
  if (endpoints.empty()) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "NameClient wants at least one bootstrap endpoint");
  }
  endpoints_.reserve(endpoints.size());
  for (const orb::ObjectRef& ref : endpoints) {
    endpoints_.push_back(ref.to_bytes());
  }
  stub_ = NameServiceStub(context_, std::move(endpoints.front()));
  auto& registry = metrics::MetricsRegistry::global();
  cache_hits_ =
      registry.counter_handle(metrics::names::kNamingResolveCacheHit);
  cache_misses_ =
      registry.counter_handle(metrics::names::kNamingResolveCacheMiss);
}

NameClient::NameClient(orb::Context& context, orb::ObjectRef bootstrap)
    : NameClient(context,
                 std::vector<orb::ObjectRef>{std::move(bootstrap)}) {}

NameClient::NameClient(orb::Context& context, const std::string& bootstrap_uri)
    : NameClient(context, bootstrap_refs_from_uri(bootstrap_uri)) {}

NameServiceStub NameClient::directory() const {
  sync::LockGuard lock(mutex_);
  return stub_;
}

std::size_t NameClient::endpoint_count() const {
  sync::LockGuard lock(mutex_);
  return endpoints_.size();
}

bool NameClient::advance_endpoint(std::size_t& walked) {
  sync::LockGuard lock(mutex_);
  if (++walked >= endpoints_.size()) return false;
  active_endpoint_ = (active_endpoint_ + 1) % endpoints_.size();
  stub_ = NameServiceStub(
      context_, orb::ObjectRef::from_bytes(endpoints_[active_endpoint_]));
  return true;
}

void NameClient::follow_redirect(const std::string& where) {
  const auto colon = where.rfind(':');
  const std::string host = where.substr(0, colon);
  const auto port =
      static_cast<std::uint16_t>(std::stoi(where.substr(colon + 1)));
  sync::LockGuard lock(mutex_);
  stub_ = NameServiceStub(context_, make_bootstrap_ref(host, port));
}

template <typename Fn>
auto NameClient::with_directory(Fn&& fn)
    -> decltype(fn(std::declval<NameServiceStub&>())) {
  std::size_t walked = 0;
  bool redirected = false;
  for (;;) {
    NameServiceStub stub = directory();
    try {
      return fn(stub);
    } catch (const TransportError& error) {
      // A saturated channel is not a dead one; everything else means this
      // endpoint is gone — walk the bootstrap list.
      if (error.code() == ErrorCode::backpressure) throw;
      if (!advance_endpoint(walked)) throw;
      introspect::anomaly(introspect::EventKind::endpoint_failover,
                          error.code(), error.what());
    } catch (const ObjectError& error) {
      if (error.code() != ErrorCode::not_primary) throw;
      // One redirect per operation: the standby names the primary; if
      // *that* refuses too, the pair is mid-election — let the caller's
      // retry policy come back later.
      const auto hint = parse_primary_hint(error.what());
      if (redirected || !hint) throw;
      redirected = true;
      follow_redirect(hint->first + ":" + std::to_string(hint->second));
      introspect::anomaly(introspect::EventKind::redirect, error.code(),
                          hint->first);
    }
  }
}

orb::ObjectRef NameClient::resolve(const std::string& name) {
  {
    sync::LockGuard lock(mutex_);
    const auto it = cache_.find(name);
    if (it != cache_.end()) {
      cache_hits_->fetch_add(1, std::memory_order_relaxed);
      return orb::ObjectRef::from_bytes(it->second.ref);
    }
  }
  cache_misses_->fetch_add(1, std::memory_order_relaxed);
  return resolve_fresh(name);
}

orb::ObjectRef NameClient::resolve_fresh(const std::string& name) {
  auto [version, ref] = with_directory(
      [&](NameServiceStub& stub) { return stub.resolve_versioned(name); });
  sync::LockGuard lock(mutex_);
  // A concurrent refresh may already hold a newer version; never let an
  // older in-flight reply roll the cache backwards.
  CacheEntry& entry = cache_[name];
  if (entry.version <= version) {
    entry = CacheEntry{ref.to_bytes(), version};
    return ref;
  }
  return orb::ObjectRef::from_bytes(entry.ref);
}

std::pair<std::uint64_t, std::vector<orb::ObjectRef>> NameClient::resolve_all(
    const std::string& name) {
  return with_directory(
      [&](NameServiceStub& stub) { return stub.resolve_all(name); });
}

void NameClient::invalidate(const std::string& name) {
  sync::LockGuard lock(mutex_);
  cache_.erase(name);
}

std::optional<std::uint64_t> NameClient::cached_version(
    const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = cache_.find(name);
  if (it == cache_.end()) return std::nullopt;
  return it->second.version;
}

void NameClient::bind(const std::string& name, const orb::ObjectRef& ref,
                      bool rebind) {
  with_directory([&](NameServiceStub& stub) {
    stub.bind(name, ref, rebind);
    return true;
  });
  invalidate(name);
}

bool NameClient::unbind(const std::string& name) {
  const bool existed = with_directory(
      [&](NameServiceStub& stub) { return stub.unbind(name); });
  invalidate(name);
  return existed;
}

std::uint64_t NameClient::bind_replica(const std::string& name,
                                       const orb::ObjectRef& ref,
                                       std::chrono::milliseconds ttl) {
  const std::uint64_t replica_id = with_directory(
      [&](NameServiceStub& stub) { return stub.bind_replica(name, ref, ttl); });
  invalidate(name);
  return replica_id;
}

bool NameClient::heartbeat(const std::string& name, std::uint64_t replica_id,
                           std::chrono::milliseconds ttl) {
  return with_directory([&](NameServiceStub& stub) {
    return stub.heartbeat(name, replica_id, ttl);
  });
}

bool NameClient::unbind_replica(const std::string& name,
                                std::uint64_t replica_id) {
  const bool existed = with_directory([&](NameServiceStub& stub) {
    return stub.unbind_replica(name, replica_id);
  });
  invalidate(name);
  return existed;
}

std::uint64_t NameClient::report_dead(const std::string& name,
                                      const orb::ObjectRef& dead) {
  const std::uint64_t dropped = with_directory(
      [&](NameServiceStub& stub) { return stub.report_dead(name, dead); });
  if (dropped > 0) invalidate(name);
  return dropped;
}

}  // namespace ohpx::naming
