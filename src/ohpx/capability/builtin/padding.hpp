// Padding capability: rounds every payload up to a multiple of a fixed
// block size, hiding exact message lengths from an on-path observer
// (traffic-analysis resistance — one more QoS/security attribute in the
// paper's §1 taxonomy).  Typically chained *after* encryption so the
// ciphertext, not the plaintext, is padded.
//
// Wire form: payload ‖ zero padding ‖ u32 original length (big-endian).
#pragma once

#include "ohpx/capability/capability.hpp"

namespace ohpx::cap {

class PaddingCapability final : public Capability {
 public:
  /// The largest block size: process() rounds a payload up to a block, and
  /// below this bound that round-up cannot wrap.
  static constexpr std::size_t kMaxBlockSize = 64 * 1024;

  /// Throws CapabilityDenied(capability_bad_payload) unless `block_size`
  /// is in [1, kMaxBlockSize].
  explicit PaddingCapability(std::size_t block_size = 256,
                             Scope scope = Scope::always);

  std::string_view kind() const noexcept override { return "padding"; }
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  std::size_t block_size() const noexcept { return block_size_; }

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);

 private:
  std::size_t block_size_;
};

}  // namespace ohpx::cap
