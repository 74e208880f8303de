// Compression capability: replaces the payload with its compressed form on
// the way out and restores it on the way in.  Useful on slow links; an
// example of a QoS attribute the paper folds into capabilities (§1).
#pragma once

#include <memory>

#include "ohpx/capability/capability.hpp"
#include "ohpx/compress/codec.hpp"

namespace ohpx::cap {

class CompressionCapability final : public Capability {
 public:
  explicit CompressionCapability(compress::CodecId codec = compress::CodecId::lz,
                                 Scope scope = Scope::always);

  std::string_view kind() const noexcept override { return "compression"; }
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);

 private:
  std::unique_ptr<compress::Codec> codec_;
};

}  // namespace ohpx::cap
