#include "ohpx/capability/builtin/authentication.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/crypto/mac.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::cap {

AuthenticationCapability::AuthenticationCapability(crypto::Key128 key,
                                                   std::string principal,
                                                   Scope scope)
    : key_(key), principal_(std::move(principal)), scope_(scope) {}

bool AuthenticationCapability::applicable(
    const netsim::Placement& placement) const {
  return scope_applies(scope_, placement);
}

Bytes AuthenticationCapability::call_binding(const CallContext& call) const {
  wire::Buffer binding;
  wire::Encoder enc(binding);
  enc.put_u64(call.request_id);
  enc.put_u64(call.object_id);
  enc.put_u8(static_cast<std::uint8_t>(call.direction));
  enc.put_string(principal_);
  return binding.release();
}

void AuthenticationCapability::process(wire::Buffer& payload,
                                       const CallContext& call) {
  // MAC over payload ‖ binding, streamed over both in place; only the tag
  // travels.
  const crypto::MacTag tag =
      crypto::mac_tag(key_, payload.view(), call_binding(call));
  payload.append(BytesView(tag));
}

void AuthenticationCapability::unprocess(wire::Buffer& payload,
                                         const CallContext& call) {
  if (payload.size() < crypto::kMacTagSize) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "payload too short for auth tag");
  }
  const std::size_t body_size = payload.size() - crypto::kMacTagSize;
  const BytesView tag = payload.view(body_size, crypto::kMacTagSize);
  if (!crypto::mac_verify(key_, payload.view(0, body_size), call_binding(call),
                          tag)) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "authentication tag mismatch for principal '" +
                               principal_ + "'");
  }
  payload.resize(body_size);
}

CapabilityDescriptor AuthenticationCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "authentication";
  d.params["key"] = key_.to_hex();
  d.params["principal"] = principal_;
  d.params["scope"] = std::string(to_string(scope_));
  return d;
}

CapabilityPtr AuthenticationCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  const crypto::Key128 key = crypto::Key128::from_hex(descriptor.require("key"));
  std::string principal = descriptor.get_or("principal", "anonymous");
  const Scope scope = scope_from_string(descriptor.get_or("scope", "cross_lan"));
  return std::make_shared<AuthenticationCapability>(key, std::move(principal),
                                                    scope);
}

}  // namespace ohpx::cap
