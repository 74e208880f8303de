#include "ohpx/orb/location.hpp"

#include "ohpx/sync/mutex.hpp"

namespace ohpx::orb {

void LocationService::publish(ObjectId object_id,
                              proto::ServerAddress address) {
  sync::LockGuard lock(mutex_);
  const auto it = addresses_.find(object_id);
  address.epoch = (it == addresses_.end()) ? 1 : it->second.epoch + 1;
  if (!address.tcp_host.empty()) {
    tcp_endpoints_.emplace(address.tcp_host, address.tcp_port);
  }
  addresses_[object_id] = std::move(address);
  version_.fetch_add(1, std::memory_order_release);
}

bool LocationService::foreign(const proto::ServerAddress& address) const {
  if (address.tcp_host.empty()) return false;
  sync::LockGuard lock(mutex_);
  return !tcp_endpoints_.contains({address.tcp_host, address.tcp_port});
}

std::optional<proto::ServerAddress> LocationService::resolve(
    ObjectId object_id) const {
  sync::LockGuard lock(mutex_);
  const auto it = addresses_.find(object_id);
  if (it == addresses_.end()) return std::nullopt;
  return it->second;
}

void LocationService::remove(ObjectId object_id) {
  sync::LockGuard lock(mutex_);
  if (addresses_.erase(object_id) != 0) {
    version_.fetch_add(1, std::memory_order_release);
  }
}

std::uint64_t LocationService::epoch_of(ObjectId object_id) const {
  sync::LockGuard lock(mutex_);
  const auto it = addresses_.find(object_id);
  return it == addresses_.end() ? 0 : it->second.epoch;
}

std::size_t LocationService::size() const {
  sync::LockGuard lock(mutex_);
  return addresses_.size();
}

}  // namespace ohpx::orb
