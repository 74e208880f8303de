#include "ohpx/crypto/mac.hpp"

#include <algorithm>

#include "ohpx/common/endian.hpp"

namespace ohpx::crypto {

void SipHasher::update(BytesView data) noexcept {
  const std::size_t pending = length_ % 8;
  length_ += data.size();
  if (pending != 0) {
    // Top up the partial word; compress it once it is whole.
    const std::size_t take = std::min(8 - pending, data.size());
    std::copy_n(data.begin(), take, pending_.begin() + pending);
    data = data.subspan(take);
    if (pending + take < 8) return;
    compress(load_le<std::uint64_t>(pending_.data()));
  }
  // The state words are members, but nothing in this loop stores to
  // memory, so they stay in registers across it.
  const std::size_t whole = data.size() - data.size() % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    compress(load_le<std::uint64_t>(data.data() + i));
  }
  std::copy(data.begin() + whole, data.end(), pending_.begin());
}

std::uint64_t SipHasher::finish() noexcept {
  // Final word: the pending (< 8) bytes, the length's low byte on top.
  MacTag last{};
  std::copy_n(pending_.begin(), length_ % 8, last.begin());
  compress(load_le<std::uint64_t>(last.data()) | ((length_ & 0xff) << 56));
  v2_ ^= 0xff;
  round();
  round();
  round();
  round();
  return v0_ ^ v1_ ^ v2_ ^ v3_;
}

MacTag SipHasher::finish_tag() noexcept {
  static_assert(kMacTagSize == 8);
  MacTag tag{};
  store_le<std::uint64_t>(tag.data(), finish());
  return tag;
}

std::uint64_t siphash24(const Key128& key, BytesView data) noexcept {
  SipHasher hasher(key);
  hasher.update(data);
  return hasher.finish();
}

Bytes mac_tag(const Key128& key, BytesView data) {
  SipHasher hasher(key);
  hasher.update(data);
  const MacTag tag = hasher.finish_tag();
  return Bytes(tag.begin(), tag.end());
}

}  // namespace ohpx::crypto
