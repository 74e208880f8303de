#include "ohpx/crypto/key.hpp"

#include "ohpx/common/bytes.hpp"
#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/common/rng.hpp"

namespace ohpx::crypto {

std::uint64_t Key128::lo() const noexcept {
  return load_le<std::uint64_t>(bytes.data());
}

std::uint64_t Key128::hi() const noexcept {
  return load_le<std::uint64_t>(bytes.data() + 8);
}

std::string Key128::to_hex() const {
  return ohpx::to_hex(BytesView(bytes.data(), bytes.size()));
}

Key128 Key128::from_hex(std::string_view hex) {
  return from_bytes(ohpx::from_hex(hex));
}

Key128 Key128::from_bytes(BytesView raw) {
  if (raw.size() != kSize) {
    throw WireError(ErrorCode::wire_bad_value,
                    "Key128 must be 16 bytes (32 hex digits)");
  }
  Key128 key;
  std::copy(raw.begin(), raw.end(), key.bytes.begin());
  return key;
}

Key128 Key128::from_seed(std::uint64_t seed) noexcept {
  SplitMix64 mixer(seed);
  Key128 key;
  for (int half = 0; half < 2; ++half) {
    std::uint64_t word = mixer.next();
    for (int i = 0; i < 8; ++i) {
      key.bytes[half * 8 + i] = static_cast<std::uint8_t>(word >> (8 * i));
    }
  }
  return key;
}

Key128 Key128::from_passphrase(std::string_view passphrase) noexcept {
  // FNV-1a over the passphrase, folded twice with different offsets, then
  // expanded through SplitMix64.  Deterministic across platforms.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : passphrase) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return from_seed(h);
}

}  // namespace ohpx::crypto
