// SipHash-2-4 message authentication code (Aumasson & Bernstein), built
// from scratch.  Used by the authentication capability to tag each request
// with an 8-byte MAC the server side verifies before dispatch.
#pragma once

#include <array>
#include <cstdint>

#include "ohpx/common/bytes.hpp"
#include "ohpx/crypto/key.hpp"

namespace ohpx::crypto {

inline constexpr std::size_t kMacTagSize = 8;

/// The wire form of a MAC tag, held without a heap allocation.
using MacTag = std::array<std::uint8_t, kMacTagSize>;

/// SipHash-2-4 over a message fed in pieces: update() with any split of
/// it, then finish() once.  absorb_word() is the per-word kernel the
/// capability chain's sweep (crypto/sweep.hpp) runs while no partial word
/// is pending; this header holds the one definition of the SipHash round.
class SipHasher {
 public:
  explicit SipHasher(const Key128& key) noexcept
      : v0_(0x736f6d6570736575ULL ^ key.lo()),
        v1_(0x646f72616e646f6dULL ^ key.hi()),
        v2_(0x6c7967656e657261ULL ^ key.lo()),
        v3_(0x7465646279746573ULL ^ key.hi()) {}

  /// True when no partial word is pending: absorb_word() may run.
  bool aligned() const noexcept { return length_ % 8 == 0; }

  /// Absorbs the next 8 message bytes as one little-endian word.
  void absorb_word(std::uint64_t m) noexcept {
    compress(m);
    length_ += 8;
  }

  /// Absorbs `data`, continuing any partial word.
  void update(BytesView data) noexcept;

  /// The hash of everything absorbed; the hasher is spent afterwards.
  std::uint64_t finish() noexcept;

  /// finish() as the 8-byte little-endian wire tag.
  MacTag finish_tag() noexcept;

 private:
  static std::uint64_t rotl(std::uint64_t x, int b) noexcept {
    return (x << b) | (x >> (64 - b));
  }

  void round() noexcept {
    v0_ += v1_;
    v1_ = rotl(v1_, 13);
    v1_ ^= v0_;
    v0_ = rotl(v0_, 32);
    v2_ += v3_;
    v3_ = rotl(v3_, 16);
    v3_ ^= v2_;
    v0_ += v3_;
    v3_ = rotl(v3_, 21);
    v3_ ^= v0_;
    v2_ += v1_;
    v1_ = rotl(v1_, 17);
    v1_ ^= v2_;
    v2_ = rotl(v2_, 32);
  }

  void compress(std::uint64_t m) noexcept {
    v3_ ^= m;
    round();
    round();
    v0_ ^= m;
  }

  std::uint64_t v0_, v1_, v2_, v3_;
  std::uint64_t length_ = 0;  // bytes absorbed
  MacTag pending_{};          // the partial word's bytes (length_ % 8)
};

/// SipHash-2-4 of `data` under `key`.
std::uint64_t siphash24(const Key128& key, BytesView data) noexcept;

/// 8-byte little-endian encoding of siphash24 — the wire form of a MAC tag.
Bytes mac_tag(const Key128& key, BytesView data);

}  // namespace ohpx::crypto
