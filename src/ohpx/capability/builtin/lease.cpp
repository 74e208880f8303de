#include "ohpx/capability/builtin/lease.hpp"

#include <algorithm>

#include "ohpx/common/error.hpp"
#include "ohpx/resilience/clock.hpp"

namespace ohpx::cap {

using std::chrono::milliseconds;

LeaseCapability::LeaseCapability(std::uint64_t ttl_ms, Scope scope)
    : Capability(scope),
      expiry_ns_(resilience::now_ns() +
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     milliseconds(std::min(ttl_ms, kLongestMs)))
                     .count()) {}

LeaseCapability::LeaseCapability(milliseconds ttl, Scope scope)
    : LeaseCapability(
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, ttl.count())),
          scope) {}

bool LeaseCapability::expired() const noexcept {
  return resilience::now_ns() >= expiry_ns_;
}

milliseconds LeaseCapability::remaining() const noexcept {
  const auto now = resilience::now_ns();
  if (now >= expiry_ns_) return milliseconds(0);
  return std::chrono::duration_cast<milliseconds>(
      std::chrono::nanoseconds(expiry_ns_ - now));
}

void LeaseCapability::admit(const CallContext& call) {
  // Replies ride on the admission already granted to their request.
  if (call.direction != Direction::request) return;
  if (expired()) {
    throw CapabilityDenied(ErrorCode::capability_expired, "lease expired");
  }
}

void LeaseCapability::process(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

void LeaseCapability::unprocess(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

CapabilityDescriptor LeaseCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "lease";
  d.params["ttl_ms"] = std::to_string(remaining().count());
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr LeaseCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<LeaseCapability>(
      descriptor.integer("ttl_ms", std::nullopt),
      descriptor.scope(Scope::always));
}

}  // namespace ohpx::cap
