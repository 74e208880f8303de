#include "ohpx/capability/builtin/quota.hpp"

#include "ohpx/common/error.hpp"

namespace ohpx::cap {

QuotaCapability::QuotaCapability(std::uint64_t max_calls, Scope scope)
    : Capability(scope), max_calls_(max_calls) {}

void QuotaCapability::admit(const CallContext& call) {
  if (call.direction != Direction::request) return;
  // Optimistically claim a slot; roll back and refuse if over budget.
  const std::uint64_t claimed = used_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (claimed > max_calls_) {
    used_.fetch_sub(1, std::memory_order_relaxed);
    throw CapabilityDenied(ErrorCode::capability_exhausted,
                           "quota of " + std::to_string(max_calls_) +
                               " calls exhausted");
  }
}

void QuotaCapability::process(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

void QuotaCapability::unprocess(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

std::uint64_t QuotaCapability::remaining() const noexcept {
  const std::uint64_t used = used_.load(std::memory_order_relaxed);
  return used >= max_calls_ ? 0 : max_calls_ - used;
}

std::uint64_t QuotaCapability::used() const noexcept {
  return used_.load(std::memory_order_relaxed);
}

CapabilityDescriptor QuotaCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "quota";
  d.params["max_calls"] = std::to_string(remaining());
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr QuotaCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<QuotaCapability>(
      descriptor.integer("max_calls", std::nullopt),
      descriptor.scope(Scope::always));
}

}  // namespace ohpx::cap
