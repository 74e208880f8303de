#include "ohpx/crypto/sweep.hpp"

#include <algorithm>
#include <cstring>

#include "ohpx/common/endian.hpp"

namespace ohpx::crypto {
namespace {

// A stage an instantiation of fused() does not run: nothing to copy,
// construct or step.
struct Idle {};

template <bool kRun, typename Stage>
auto copy_of(const Stage* stage) noexcept {
  if constexpr (kRun) {
    return *stage;
  } else {
    return Idle{};
  }
}

// The fused loop over `words` whole words.  The states run on copies:
// stepped through references, they would be reloaded after each store to
// `dst`, which may alias them as far as the compiler knows.  A stage the
// instantiation does not run may be null and is never touched.
template <bool kMac, bool kMacFirst, bool kCipher, bool kStore>
void fused(const std::uint8_t* src, std::uint8_t* dst, std::size_t words,
           SipHasher* mac_state, StreamCipher* cipher_state) noexcept {
  [[maybe_unused]] auto mac = copy_of<kMac>(mac_state);
  [[maybe_unused]] auto cipher = copy_of<kCipher>(cipher_state);
  for (std::size_t i = 0; i < words * 8; i += 8) {
    std::uint64_t word = load_le<std::uint64_t>(src + i);
    if constexpr (kMac && kMacFirst) mac.absorb_word(word);
    if constexpr (kCipher) word ^= cipher.next_word();
    if constexpr (kMac && !kMacFirst) mac.absorb_word(word);
    if constexpr (kStore) store_le<std::uint64_t>(dst + i, word);
  }
  if constexpr (kMac) *mac_state = mac;
  if constexpr (kCipher) *cipher_state = cipher;
}

}  // namespace

void sweep(BytesView src, std::uint8_t* dst,
           const SweepStages& stages) noexcept {
  SipHasher* const mac = stages.mac_in ? stages.mac_in : stages.mac_out;
  StreamCipher* const cipher = stages.cipher;
  const bool mac_first = stages.mac_in != nullptr;
  // In place with nothing to mask, the bytes already are the output.
  const bool store = cipher != nullptr || dst != src.data();

  std::size_t done = 0;
  if ((mac == nullptr || mac->aligned()) &&
      (cipher == nullptr || cipher->aligned())) {
    const std::size_t words = src.size() / 8;
    const std::uint8_t* in = src.data();
    if (mac && cipher && mac_first) {
      fused<true, true, true, true>(in, dst, words, mac, cipher);
    } else if (mac && cipher) {
      fused<true, false, true, true>(in, dst, words, mac, cipher);
    } else if (cipher) {
      fused<false, false, true, true>(in, dst, words, mac, cipher);
    } else if (mac && store) {
      fused<true, true, false, true>(in, dst, words, mac, cipher);
    } else if (mac) {
      fused<true, true, false, false>(in, dst, words, mac, cipher);
    } else if (store && words > 0) {
      std::memcpy(dst, in, words * 8);
    }
    done = words * 8;
  }

  // The rest: under a word at the end, or everything while a stage is
  // mid-word (a tag after a payload whose length is not a multiple of 8).
  std::uint8_t block[8] = {};
  while (done < src.size()) {
    const std::size_t n = std::min<std::size_t>(8, src.size() - done);
    std::memcpy(block, src.data() + done, n);
    const std::span<std::uint8_t> piece(block, n);
    if (mac && mac_first) mac->update(piece);
    if (cipher) cipher->apply(piece);
    if (mac && !mac_first) mac->update(piece);
    if (store) std::memcpy(dst + done, block, n);
    done += n;
  }
}

}  // namespace ohpx::crypto
