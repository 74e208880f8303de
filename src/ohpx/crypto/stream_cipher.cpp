#include "ohpx/crypto/stream_cipher.hpp"

#include <bit>

#include "ohpx/common/endian.hpp"

namespace ohpx::crypto {

StreamCipher::StreamCipher(const Key128& key, std::uint64_t nonce) noexcept
    : generator_(key.lo() ^ std::rotl(key.hi(), 31) ^
                 (nonce * 0xda942042e4dd58b5ULL)) {}

void StreamCipher::apply(std::span<std::uint8_t> data) noexcept {
  std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; left_ > 0 && i < n; ++i, --left_) {
    p[i] ^= static_cast<std::uint8_t>(word_);
    word_ >>= 8;
  }
  if (i == n) return;
  // The generator runs on a copy for the loop: stepped through `this`, its
  // words would be reloaded after each store to `data`, which may alias
  // them as far as the compiler knows.
  StreamCipher stream = *this;
  for (; i + 8 <= n; i += 8) {
    store_le<std::uint64_t>(p + i,
                            load_le<std::uint64_t>(p + i) ^ stream.next_word());
  }
  if (i < n) {
    stream.word_ = stream.next_word();
    for (stream.left_ = 8; i < n; ++i, --stream.left_) {
      p[i] ^= static_cast<std::uint8_t>(stream.word_);
      stream.word_ >>= 8;
    }
  }
  *this = stream;
}

}  // namespace ohpx::crypto
