#include "ohpx/capability/builtin/ratelimit.hpp"

#include <algorithm>

#include "ohpx/common/error.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::cap {

RateLimitCapability::RateLimitCapability(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec),
      burst_(burst),
      tokens_(burst),
      last_refill_(std::chrono::steady_clock::now()) {}

void RateLimitCapability::refill_locked() {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_per_sec_);
}

void RateLimitCapability::admit(const CallContext& call) {
  if (call.direction != Direction::request) return;
  sync::LockGuard lock(mutex_);
  refill_locked();
  if (tokens_ < 1.0) {
    throw CapabilityDenied(ErrorCode::capability_denied,
                           "rate limit exceeded");
  }
  tokens_ -= 1.0;
}

void RateLimitCapability::process(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

void RateLimitCapability::unprocess(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

double RateLimitCapability::tokens() const {
  sync::LockGuard lock(mutex_);
  const_cast<RateLimitCapability*>(this)->refill_locked();
  return tokens_;
}

CapabilityDescriptor RateLimitCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "ratelimit";
  d.params["rate_per_sec"] = std::to_string(rate_per_sec_);
  d.params["burst"] = std::to_string(burst_);
  return d;
}

CapabilityPtr RateLimitCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<RateLimitCapability>(
      descriptor.decimal("rate_per_sec", std::nullopt),
      descriptor.decimal("burst", std::nullopt));
}

}  // namespace ohpx::cap
