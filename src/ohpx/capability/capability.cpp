#include "ohpx/capability/capability.hpp"

#include <charconv>

#include "ohpx/common/error.hpp"
#include "ohpx/common/parse.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::cap {
namespace {

std::string shortest(double value) {
  char text[32];
  return std::string(text, std::to_chars(text, text + sizeof text, value).ptr);
}

[[noreturn]] void refusal(const std::string& kind, const std::string& name,
                          const std::string& shown, std::string_view wanted) {
  throw CapabilityDenied(ErrorCode::capability_bad_payload,
                         "capability '" + kind + "' param '" + name + "' " +
                             shown + ": wants " + std::string(wanted));
}

}  // namespace

void CapabilityDescriptor::wire_serialize(wire::Encoder& enc) const {
  wire::serialize(enc, kind);
  wire::serialize(enc, params);
}

CapabilityDescriptor CapabilityDescriptor::wire_deserialize(wire::Decoder& dec) {
  CapabilityDescriptor d;
  d.kind = wire::deserialize<std::string>(dec);
  d.params = wire::deserialize<std::map<std::string, std::string>>(dec);
  return d;
}

const std::string& CapabilityDescriptor::require(const std::string& name) const {
  const auto it = params.find(name);
  if (it == params.end()) refuse(name, "a value");
  return it->second;
}

std::string CapabilityDescriptor::get_or(const std::string& name,
                                         std::string fallback) const {
  const auto it = params.find(name);
  return it == params.end() ? std::move(fallback) : it->second;
}

std::uint64_t CapabilityDescriptor::integer(
    const std::string& name, std::optional<std::uint64_t> fallback,
    std::uint64_t min, std::uint64_t max) const {
  const auto it = params.find(name);
  if (it == params.end() && fallback) return *fallback;
  if (it != params.end()) {
    if (const auto value = parse_number(it->second, min, max)) return *value;
  }
  refuse(name, "an integer in [" + std::to_string(min) + ", " +
                   std::to_string(max) + "]");
}

double CapabilityDescriptor::decimal(const std::string& name,
                                     std::optional<double> fallback,
                                     double min, double max) const {
  const auto it = params.find(name);
  if (it == params.end() && fallback) return *fallback;
  if (it != params.end()) {
    if (const auto value = parse_decimal(it->second, min, max)) return *value;
  }
  refuse(name, "a decimal in [" + shortest(min) + ", " + shortest(max) + "]");
}

Scope CapabilityDescriptor::scope(Scope fallback) const {
  const auto it = params.find("scope");
  if (it == params.end()) return fallback;
  if (const auto scope = scope_from_string(it->second)) return *scope;
  refuse("scope", "a scope name");
}

Bytes CapabilityDescriptor::hex(const std::string& name,
                                std::optional<std::size_t> size) const {
  try {
    Bytes bytes = from_hex(require(name));
    if (!size || bytes.size() == *size) return bytes;
  } catch (const WireError&) {
    // Refused below, by name, without the value.
  }
  refusal(kind, name, "is malformed (value withheld)",
          size ? std::to_string(*size * 2) + " hex digits"
               : std::string("an even number of hex digits"));
}

void CapabilityDescriptor::refuse(const std::string& name,
                                  std::string_view wanted) const {
  const auto it = params.find(name);
  refusal(kind, name,
          it == params.end() ? std::string("missing")
                             : "= '" + it->second + "'",
          wanted);
}

}  // namespace ohpx::cap
