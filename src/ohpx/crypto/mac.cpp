#include "ohpx/crypto/mac.hpp"

#include <algorithm>

#include "ohpx/common/endian.hpp"

namespace ohpx::crypto {
namespace {

std::uint64_t rotl(std::uint64_t x, int b) noexcept {
  return (x << b) | (x >> (64 - b));
}

// The four state words live in a local object whose address never
// escapes, so they stay in registers across the compression loop.
struct SipState {
  std::uint64_t v0, v1, v2, v3;

  explicit SipState(const Key128& key) noexcept
      : v0(0x736f6d6570736575ULL ^ key.lo()),
        v1(0x646f72616e646f6dULL ^ key.hi()),
        v2(0x6c7967656e657261ULL ^ key.lo()),
        v3(0x7465646279746573ULL ^ key.hi()) {}

  void round() noexcept {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  void compress(std::uint64_t m) noexcept {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  /// Compresses every whole word of `data`; returns the bytes left over.
  BytesView absorb_words(BytesView data) noexcept {
    const std::size_t end = data.size() - data.size() % 8;
    for (std::size_t i = 0; i < end; i += 8) {
      compress(load_le64(data.data() + i));
    }
    return data.subspan(end);
  }

  std::uint64_t finish(std::uint64_t last) noexcept {
    compress(last);
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

}  // namespace

std::uint64_t siphash24(const Key128& key, BytesView head,
                        BytesView tail) noexcept {
  SipState s(key);
  const std::size_t total = head.size() + tail.size();
  // The head's leftover bytes (< 8) and the front of the tail make up the
  // word that straddles the split.
  std::uint8_t block[8] = {};
  const BytesView head_rest = s.absorb_words(head);
  std::copy(head_rest.begin(), head_rest.end(), block);
  const std::size_t take = std::min(8 - head_rest.size(), tail.size());
  std::copy_n(tail.begin(), take, block + head_rest.size());
  if (head_rest.size() + take == 8) {
    s.compress(load_le64(block));
    const BytesView tail_rest = s.absorb_words(tail.subspan(take));
    std::fill(std::begin(block), std::end(block), std::uint8_t{0});
    std::copy(tail_rest.begin(), tail_rest.end(), block);
  }
  // Final word: the remaining (< 8) bytes, the length's low byte on top.
  return s.finish(load_le64(block) |
                  (static_cast<std::uint64_t>(total & 0xff) << 56));
}

std::uint64_t siphash24(const Key128& key, BytesView data) noexcept {
  return siphash24(key, data, BytesView{});
}

MacTag mac_tag(const Key128& key, BytesView head, BytesView tail) noexcept {
  static_assert(kMacTagSize == 8);
  MacTag tag{};
  store_le64(tag.data(), siphash24(key, head, tail));
  return tag;
}

Bytes mac_tag(const Key128& key, BytesView data) {
  const MacTag tag = mac_tag(key, data, BytesView{});
  return Bytes(tag.begin(), tag.end());
}

bool mac_verify(const Key128& key, BytesView head, BytesView tail,
                BytesView tag) noexcept {
  if (tag.size() != kMacTagSize) return false;
  const MacTag expected = mac_tag(key, head, tail);
  return constant_time_equal(expected, tag);
}

bool mac_verify(const Key128& key, BytesView data, BytesView tag) noexcept {
  return mac_verify(key, data, BytesView{}, tag);
}

}  // namespace ohpx::crypto
