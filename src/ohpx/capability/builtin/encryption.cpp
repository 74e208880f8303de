#include "ohpx/capability/builtin/encryption.hpp"

namespace ohpx::cap {

EncryptionCapability::EncryptionCapability(crypto::Key128 key, Scope scope)
    : Capability(scope), key_(key) {}

void EncryptionCapability::process(wire::Buffer& payload,
                                   const CallContext& call) {
  keystream(call).apply(payload.mutable_view());
}

void EncryptionCapability::unprocess(wire::Buffer& payload,
                                     const CallContext& call) {
  keystream(call).apply(payload.mutable_view());
}

CapabilityDescriptor EncryptionCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "encryption";
  d.params["key"] = key_.to_hex();
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr EncryptionCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  const crypto::Key128 key = crypto::Key128::from_bytes(
      descriptor.hex("key", crypto::Key128::kSize));
  return std::make_shared<EncryptionCapability>(
      key, descriptor.scope(Scope::always));
}

}  // namespace ohpx::cap
