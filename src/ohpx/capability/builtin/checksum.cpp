#include "ohpx/capability/builtin/checksum.hpp"

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/wire/crc.hpp"

namespace ohpx::cap {

ChecksumCapability::ChecksumCapability(Scope scope) : Capability(scope) {}

void ChecksumCapability::process(wire::Buffer& payload, const CallContext& call) {
  (void)call;
  const std::uint32_t crc = wire::crc32(payload.view());
  const std::size_t body_size = payload.size();
  payload.resize(body_size + 4);
  store_be(payload.data() + body_size, crc);
}

void ChecksumCapability::unprocess(wire::Buffer& payload, const CallContext& call) {
  (void)call;
  if (payload.size() < 4) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "payload too short for checksum");
  }
  const std::size_t body_size = payload.size() - 4;
  const auto stored = load_be<std::uint32_t>(payload.data() + body_size);
  const std::uint32_t computed = wire::crc32(payload.view(0, body_size));
  if (stored != computed) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "payload checksum mismatch");
  }
  payload.resize(body_size);
}

CapabilityDescriptor ChecksumCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "checksum";
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr ChecksumCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<ChecksumCapability>(descriptor.scope(Scope::always));
}

}  // namespace ohpx::cap
