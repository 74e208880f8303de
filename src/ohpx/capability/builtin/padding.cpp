#include "ohpx/capability/builtin/padding.hpp"

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"

namespace ohpx::cap {

PaddingCapability::PaddingCapability(std::size_t block_size, Scope scope)
    : block_size_(block_size), scope_(scope) {
  if (block_size_ == 0) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "padding block size must be positive");
  }
}

bool PaddingCapability::applicable(const netsim::Placement& placement) const {
  return scope_applies(scope_, placement);
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
  d.params["scope"] = std::string(to_string(scope_));
  return d;
}

CapabilityPtr PaddingCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  const unsigned long long block =
      std::stoull(descriptor.get_or("block_size", "256"));
  const Scope scope = scope_from_string(descriptor.get_or("scope", "always"));
  return std::make_shared<PaddingCapability>(static_cast<std::size_t>(block),
                                             scope);
}

}  // namespace ohpx::cap
