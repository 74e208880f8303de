#include "ohpx/crypto/stream_cipher.hpp"

#include "ohpx/common/endian.hpp"

namespace ohpx::crypto {
namespace {

std::uint64_t splitmix(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

StreamCipher::StreamCipher(const Key128& key, std::uint64_t nonce) noexcept {
  std::uint64_t seed = key.lo() ^ rotl(key.hi(), 31) ^ (nonce * 0xda942042e4dd58b5ULL);
  for (auto& word : state_) word = splitmix(seed);
}

void StreamCipher::apply(std::span<std::uint8_t> data) noexcept {
  // The generator state is copied into locals for the loop: written back
  // through `this` on every step, it would be reloaded after each store to
  // `data`, which may alias it as far as the compiler knows.
  std::uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
  auto next_word = [&]() noexcept {
    const std::uint64_t result = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
  };

  // Keystream byte b of a word is (word >> 8b): whole 8-byte blocks XOR as
  // one little-endian word.
  std::uint8_t* p = data.data();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    store_le<std::uint64_t>(p + i,
                            load_le<std::uint64_t>(p + i) ^ next_word());
  }
  // Tail.
  if (i < data.size()) {
    const std::uint64_t ks = next_word();
    for (int b = 0; i < data.size(); ++i, ++b) {
      p[i] ^= static_cast<std::uint8_t>(ks >> (8 * b));
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

void stream_crypt(const Key128& key, std::uint64_t nonce,
                  std::span<std::uint8_t> data) noexcept {
  StreamCipher cipher(key, nonce);
  cipher.apply(data);
}

}  // namespace ohpx::crypto
