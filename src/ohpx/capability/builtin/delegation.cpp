#include "ohpx/capability/builtin/delegation.hpp"

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/common/parse.hpp"
#include "ohpx/crypto/mac.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::cap {
namespace {

constexpr std::string_view kRootLabel = "ohpx-delegation";

crypto::Key128 key_of_token(const Bytes& token) {
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i < token.size() && i < 8; ++i) {
    seed |= static_cast<std::uint64_t>(token[i]) << (8 * i);
  }
  return crypto::Key128::from_seed(seed);
}

std::uint64_t caveat_number(std::string_view text) {
  if (const auto value = parse_number(text, 0)) return *value;
  throw CapabilityDenied(ErrorCode::capability_bad_payload,
                         "delegation caveat has a bad number");
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(separator, start);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

std::shared_ptr<DelegationCapability> DelegationCapability::make_root(
    crypto::Key128 root_key) {
  auto capability = std::make_shared<DelegationCapability>(Private{});
  capability->is_verifier_ = true;
  capability->root_key_ = root_key;
  capability->token_ = fold(root_key, {});
  return capability;
}

std::shared_ptr<DelegationCapability> DelegationCapability::make_bearer(
    std::vector<std::string> caveats, Bytes token) {
  auto capability = std::make_shared<DelegationCapability>(Private{});
  capability->is_verifier_ = false;
  capability->caveats_ = std::move(caveats);
  capability->token_ = std::move(token);
  return capability;
}

Bytes DelegationCapability::fold_step(const Bytes& token,
                                      const std::string& caveat) {
  return crypto::mac_tag(key_of_token(token), bytes_of(caveat));
}

Bytes DelegationCapability::fold(const crypto::Key128& root_key,
                                 const std::vector<std::string>& caveats) {
  Bytes token = crypto::mac_tag(root_key, bytes_of(kRootLabel));
  for (const auto& caveat : caveats) {
    token = fold_step(token, caveat);
  }
  return token;
}

std::shared_ptr<DelegationCapability> DelegationCapability::attenuate(
    const std::string& caveat) const {
  if (caveat.empty() || caveat.find('\n') != std::string::npos) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "delegation caveat malformed");
  }
  std::vector<std::string> caveats = caveats_;
  caveats.push_back(caveat);
  return make_bearer(std::move(caveats), fold_step(token_, caveat));
}

void DelegationCapability::process(wire::Buffer& payload,
                                   const CallContext& call) {
  // Only bearers stamp outgoing *requests*; verifiers never process, and
  // replies carry no token.
  if (is_verifier_ || call.direction != Direction::request) return;

  wire::Buffer trailer;
  wire::Encoder enc(trailer);
  wire::serialize(enc, caveats_);
  enc.put_bytes(token_);
  payload.append(trailer.view());
  const std::size_t at = payload.size();
  payload.resize(at + 4);
  store_be(payload.data() + at, static_cast<std::uint32_t>(trailer.size()));
}

void DelegationCapability::unprocess(wire::Buffer& payload,
                                     const CallContext& call) {
  if (!is_verifier_ || call.direction != Direction::request) return;

  if (payload.size() < 4) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "delegation trailer missing");
  }
  // Widened before the bounds check: a 32-bit `trailer_size + 4` wraps
  // for lengths from 0xFFFFFFFC up.
  const std::size_t trailer_size =
      load_be<std::uint32_t>(payload.data() + payload.size() - 4);
  if (trailer_size + 4 > payload.size()) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "delegation trailer truncated");
  }

  const std::size_t body_size = payload.size() - 4 - trailer_size;
  wire::Decoder dec(payload.view(body_size, trailer_size));
  std::vector<std::string> caveats;
  Bytes token;
  try {
    caveats = wire::deserialize<std::vector<std::string>>(dec);
    token = dec.get_bytes();
    dec.expect_end();
  } catch (const WireError&) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "delegation trailer malformed");
  }

  const Bytes expected = fold(root_key_, caveats);
  if (!constant_time_equal(expected, token)) {
    throw CapabilityDenied(ErrorCode::capability_auth_failed,
                           "delegation token rejected");
  }

  payload.resize(body_size);
  for (const auto& caveat : caveats) {
    enforce_caveat(caveat, payload, call);
  }
}

void DelegationCapability::enforce_caveat(const std::string& caveat,
                                          const wire::Buffer& payload,
                                          const CallContext& call) const {
  if (caveat.rfind("method<=", 0) == 0) {
    if (call.method_id > caveat_number(std::string_view(caveat).substr(8))) {
      throw CapabilityDenied(ErrorCode::capability_denied,
                             "delegation caveat violated: " + caveat);
    }
    return;
  }
  if (caveat.rfind("method in ", 0) == 0) {
    for (const auto& item : split(std::string_view(caveat).substr(10), ',')) {
      if (call.method_id == caveat_number(item)) return;
    }
    throw CapabilityDenied(ErrorCode::capability_denied,
                           "delegation caveat violated: " + caveat);
  }
  if (caveat.rfind("size<=", 0) == 0) {
    if (payload.size() > caveat_number(std::string_view(caveat).substr(6))) {
      throw CapabilityDenied(ErrorCode::capability_denied,
                             "delegation caveat violated: " + caveat);
    }
    return;
  }
  // Macaroon rule: an unknown caveat cannot be proven satisfied, so it
  // fails closed.
  throw CapabilityDenied(ErrorCode::capability_denied,
                         "delegation caveat not understood: " + caveat);
}

CapabilityDescriptor DelegationCapability::descriptor() const {
  // The public (OR-travelling) form is always a bearer: caveats + token,
  // never the root key.
  CapabilityDescriptor d;
  d.kind = "delegation";
  d.params["role"] = "bearer";
  std::string joined;
  for (const auto& caveat : caveats_) {
    if (!joined.empty()) joined += '\n';
    joined += caveat;
  }
  d.params["caveats"] = joined;
  d.params["token"] = to_hex(token_);
  return d;
}

CapabilityDescriptor DelegationCapability::server_descriptor() const {
  if (!is_verifier_) return descriptor();
  CapabilityDescriptor d;
  d.kind = "delegation";
  d.params["role"] = "verifier";
  d.params["root_key"] = root_key_.to_hex();
  return d;
}

CapabilityPtr DelegationCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  const std::string role = descriptor.get_or("role", "bearer");
  if (role == "verifier") {
    return make_root(crypto::Key128::from_bytes(
        descriptor.hex("root_key", crypto::Key128::kSize)));
  }
  std::vector<std::string> caveats;
  const std::string joined = descriptor.get_or("caveats", "");
  if (!joined.empty()) {
    for (auto& caveat : split(joined, '\n')) caveats.push_back(std::move(caveat));
  }
  return make_bearer(std::move(caveats), descriptor.hex("token"));
}

}  // namespace ohpx::cap
