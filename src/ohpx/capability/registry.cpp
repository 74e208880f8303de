#include "ohpx/capability/registry.hpp"

#include "ohpx/capability/builtin/audit.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/delegation.hpp"
#include "ohpx/capability/builtin/compression.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/fault.hpp"
#include "ohpx/capability/builtin/lease.hpp"
#include "ohpx/capability/builtin/padding.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/capability/builtin/ratelimit.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::cap {

CapabilityRegistry& CapabilityRegistry::instance() {
  static CapabilityRegistry registry;
  return registry;
}

CapabilityRegistry::CapabilityRegistry() {
  factories_["encryption"] = EncryptionCapability::from_descriptor;
  factories_["authentication"] = AuthenticationCapability::from_descriptor;
  factories_["compression"] = CompressionCapability::from_descriptor;
  factories_["checksum"] = ChecksumCapability::from_descriptor;
  factories_["delegation"] = DelegationCapability::from_descriptor;
  factories_["fault"] = FaultCapability::from_descriptor;
  factories_["lease"] = LeaseCapability::from_descriptor;
  factories_["padding"] = PaddingCapability::from_descriptor;
  factories_["quota"] = QuotaCapability::from_descriptor;
  factories_["ratelimit"] = RateLimitCapability::from_descriptor;
  factories_["audit"] = AuditCapability::from_descriptor;
}

void CapabilityRegistry::register_factory(const std::string& kind,
                                          CapabilityFactory factory) {
  sync::LockGuard lock(mutex_);
  factories_[kind] = std::move(factory);
}

bool CapabilityRegistry::contains(const std::string& kind) const {
  sync::LockGuard lock(mutex_);
  return factories_.contains(kind);
}

std::vector<std::string> CapabilityRegistry::kinds() const {
  sync::LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [kind, factory] : factories_) out.push_back(kind);
  return out;
}

CapabilityPtr CapabilityRegistry::instantiate(
    const CapabilityDescriptor& descriptor) const {
  CapabilityFactory factory;
  {
    sync::LockGuard lock(mutex_);
    const auto it = factories_.find(descriptor.kind);
    if (it == factories_.end()) {
      throw CapabilityDenied(ErrorCode::capability_unknown,
                             "no factory for capability kind '" +
                                 descriptor.kind + "'");
    }
    factory = it->second;
  }
  return factory(descriptor);
}

CapabilityChain CapabilityRegistry::instantiate_chain(
    const std::vector<CapabilityDescriptor>& descriptors) const {
  std::vector<CapabilityPtr> capabilities;
  capabilities.reserve(descriptors.size());
  for (const auto& descriptor : descriptors) {
    capabilities.push_back(instantiate(descriptor));
  }
  return CapabilityChain(std::move(capabilities));
}

}  // namespace ohpx::cap
