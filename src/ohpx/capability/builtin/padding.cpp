#include "ohpx/capability/builtin/padding.hpp"

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"

namespace ohpx::cap {

PaddingCapability::PaddingCapability(std::size_t block_size, Scope scope)
    : Capability(scope), block_size_(block_size) {
  if (block_size_ == 0 || block_size_ > kMaxBlockSize) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "padding block size must be in [1, " +
                               std::to_string(kMaxBlockSize) + "]");
  }
}

void PaddingCapability::process(wire::Buffer& payload, const CallContext& call) {
  (void)call;
  const std::size_t original = payload.size();
  // Total = payload + padding + 4-byte trailer, rounded to a block.
  const std::size_t with_trailer = original + 4;
  const std::size_t padded =
      (with_trailer + block_size_ - 1) / block_size_ * block_size_;
  payload.resize(padded);  // zero padding, then the trailer
  store_be(payload.data() + padded - 4, static_cast<std::uint32_t>(original));
}

void PaddingCapability::unprocess(wire::Buffer& payload,
                                  const CallContext& call) {
  (void)call;
  if (payload.size() < 4 || payload.size() % block_size_ != 0) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "padded payload has invalid length");
  }
  const std::size_t original =
      load_be<std::uint32_t>(payload.data() + payload.size() - 4);
  if (original > payload.size() - 4) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "padded payload declares impossible length");
  }
  payload.resize(original);
}

CapabilityDescriptor PaddingCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "padding";
  d.params["block_size"] = std::to_string(block_size_);
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr PaddingCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<PaddingCapability>(
      descriptor.integer("block_size", 256, 1, kMaxBlockSize),
      descriptor.scope(Scope::always));
}

}  // namespace ohpx::cap
