// Keystream cipher used by the encryption capability.
//
// Construction: a xoshiro256** generator is seeded from (key, nonce); its
// output words are XORed over the payload.  Symmetric: apply() twice with
// the same (key, nonce) restores the plaintext.  This is deliberately a
// *model* of the paper's opaque "security capability" — a real per-byte
// transformation with realistic cost — not a production cipher (DESIGN.md
// §2 records the substitution).
#pragma once

#include <cstdint>

#include "ohpx/common/bytes.hpp"
#include "ohpx/crypto/key.hpp"

namespace ohpx::crypto {

class StreamCipher {
 public:
  StreamCipher(const Key128& key, std::uint64_t nonce) noexcept;

  /// XORs the keystream over `data` in place.
  void apply(std::span<std::uint8_t> data) noexcept;

 private:
  std::uint64_t state_[4];
};

/// One-shot convenience: encrypt/decrypt `data` in place.
void stream_crypt(const Key128& key, std::uint64_t nonce,
                  std::span<std::uint8_t> data) noexcept;

}  // namespace ohpx::crypto
