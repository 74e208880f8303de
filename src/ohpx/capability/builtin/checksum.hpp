// Integrity capability: appends a CRC-32 of the payload on the way out,
// verifies and strips it on the way in.  Cheaper than authentication when
// only accidental corruption matters.
#pragma once

#include "ohpx/capability/capability.hpp"

namespace ohpx::cap {

class ChecksumCapability final : public Capability {
 public:
  explicit ChecksumCapability(Scope scope = Scope::always);

  std::string_view kind() const noexcept override { return "checksum"; }
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);
};

}  // namespace ohpx::cap
