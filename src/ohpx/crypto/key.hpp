// 128-bit symmetric key material shared by the encryption and
// authentication capabilities.  Keys are exchangeable as hex strings so
// capability descriptors can carry them inside serialized object
// references (paper §4: "capabilities can be exchanged between processes").
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "ohpx/common/bytes.hpp"

namespace ohpx::crypto {

struct Key128 {
  static constexpr std::size_t kSize = 16;

  std::array<std::uint8_t, kSize> bytes{};

  /// Two 64-bit halves, little-endian, used by SipHash and the keystream.
  std::uint64_t lo() const noexcept;
  std::uint64_t hi() const noexcept;

  std::string to_hex() const;
  static Key128 from_hex(std::string_view hex);

  /// The key whose bytes are `raw`; throws WireError(wire_bad_value)
  /// unless it holds exactly kSize of them.
  static Key128 from_bytes(BytesView raw);

  /// Deterministic key derived from a seed (tests, examples).
  static Key128 from_seed(std::uint64_t seed) noexcept;

  /// Key derived from a passphrase by iterated mixing.
  static Key128 from_passphrase(std::string_view passphrase) noexcept;

  friend bool operator==(const Key128&, const Key128&) = default;
};

}  // namespace ohpx::crypto
