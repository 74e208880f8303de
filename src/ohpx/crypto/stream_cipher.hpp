// Keystream cipher used by the encryption capability.
//
// Construction: a xoshiro256** generator is seeded from (key, nonce); its
// output words are XORed over the payload, word i over bytes 8i..8i+7
// (byte b of a word masks with bits 8b..8b+7).  Symmetric: applying the
// same (key, nonce) stream twice restores the plaintext.  This is
// deliberately a *model* of the paper's opaque "security capability" — a
// real per-byte transformation with realistic cost — not a production
// cipher (DESIGN.md §2 records the substitution).
#pragma once

#include <cstdint>

#include "ohpx/common/bytes.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/crypto/key.hpp"

namespace ohpx::crypto {

/// One (key, nonce) keystream, consumed in order.  next_word() is the
/// per-word kernel the capability chain's sweep (crypto/sweep.hpp) runs
/// while no partial word is pending; the step itself is the one
/// Xoshiro256::next (common/rng.hpp).
class StreamCipher {
 public:
  StreamCipher(const Key128& key, std::uint64_t nonce) noexcept;

  /// True when no partial word is pending: next_word() may run.
  bool aligned() const noexcept { return left_ == 0; }

  /// The keystream word for the next 8 bytes.
  std::uint64_t next_word() noexcept { return generator_.next(); }

  /// XORs the keystream over `data` in place, continuing where the last
  /// call stopped: any split of a message masks it as one call would.
  void apply(std::span<std::uint8_t> data) noexcept;

 private:
  Xoshiro256 generator_;
  std::uint64_t word_ = 0;  // the current word's unused bytes, lowest first
  unsigned left_ = 0;       // how many of them remain
};

}  // namespace ohpx::crypto
