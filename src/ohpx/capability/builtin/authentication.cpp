#include "ohpx/capability/builtin/authentication.hpp"

#include <array>

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::cap {
namespace {

Bytes wire_string(const std::string& text) {
  wire::Buffer out;
  wire::Encoder(out).put_string(text);
  return out.release();
}

}  // namespace

AuthenticationCapability::AuthenticationCapability(crypto::Key128 key,
                                                   std::string principal,
                                                   Scope scope)
    : Capability(scope),
      key_(key),
      principal_(std::move(principal)),
      principal_wire_(wire_string(principal_)) {}

crypto::MacTag AuthenticationCapability::seal(crypto::SipHasher& hasher,
                                              const CallContext& call) const {
  // The call binding, as the wire encoder lays it out: request id and
  // object id (u64 each), direction (u8), principal (string).
  std::array<std::uint8_t, 17> fixed{};
  store_be<std::uint64_t>(fixed.data(), call.request_id);
  store_be<std::uint64_t>(fixed.data() + 8, call.object_id);
  fixed[16] = static_cast<std::uint8_t>(call.direction);
  hasher.update(fixed);
  hasher.update(principal_wire_);
  return hasher.finish_tag();
}

void AuthenticationCapability::verify(crypto::SipHasher& hasher, BytesView tag,
                                      const CallContext& call) const {
  if (!constant_time_equal(seal(hasher, call), tag)) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "authentication tag mismatch for principal '" +
                               principal_ + "'");
  }
}

void AuthenticationCapability::require_tag(std::size_t size) {
  if (size < crypto::kMacTagSize) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "payload too short for auth tag");
  }
}

void AuthenticationCapability::process(wire::Buffer& payload,
                                       const CallContext& call) {
  // MAC over payload ‖ binding; only the tag travels.
  crypto::SipHasher mac = hasher();
  mac.update(payload.view());
  const crypto::MacTag tag = seal(mac, call);
  payload.append(BytesView(tag));
}

void AuthenticationCapability::unprocess(wire::Buffer& payload,
                                         const CallContext& call) {
  require_tag(payload.size());
  const std::size_t body_size = payload.size() - crypto::kMacTagSize;
  crypto::SipHasher mac = hasher();
  mac.update(payload.view(0, body_size));
  verify(mac, payload.view(body_size, crypto::kMacTagSize), call);
  payload.resize(body_size);
}

CapabilityDescriptor AuthenticationCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "authentication";
  d.params["key"] = key_.to_hex();
  d.params["principal"] = principal_;
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr AuthenticationCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  const crypto::Key128 key = crypto::Key128::from_bytes(
      descriptor.hex("key", crypto::Key128::kSize));
  return std::make_shared<AuthenticationCapability>(
      key, descriptor.get_or("principal", "anonymous"),
      descriptor.scope(Scope::cross_lan));
}

}  // namespace ohpx::cap
