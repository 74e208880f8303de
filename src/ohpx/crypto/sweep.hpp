// One pass that runs a MAC and a keystream over the same bytes.
//
// Authentication and encryption each cost a pass over the payload, and
// in a chain they run back to back over the same bytes.  A sweep loads
// each 8-byte word once, absorbs it into a SipHash state before or after
// XORing it with the keystream, and stores it once: the tag and the
// ciphertext are exactly those of the two passes run one after the other,
// but the SipHash rounds (a serial dependency chain) and the keystream
// steps (an independent one) overlap in the core, and the bytes cross
// the cache once.  The capability chain (capability/chain.hpp) runs every
// authentication and encryption step through here, a lone one too.
#pragma once

#include <cstdint>

#include "ohpx/common/bytes.hpp"
#include "ohpx/crypto/mac.hpp"
#include "ohpx/crypto/stream_cipher.hpp"

namespace ohpx::crypto {

/// The stages a sweep runs over each word, in this order; any may be null.
struct SweepStages {
  SipHasher* mac_in = nullptr;     // absorbs the word read
  StreamCipher* cipher = nullptr;  // masks it
  SipHasher* mac_out = nullptr;    // absorbs the word written
};

/// Runs `src` through `stages` into `dst` (src.size() bytes, which may be
/// src.data() itself) in one pass, the stages' states left where a
/// further sweep or update()/apply()/finish() continues them.  Whole
/// words run through the fused kernel while every stage is word-aligned,
/// the rest in small pieces, so any split of a message gives the bytes
/// and the hash one call would.
void sweep(BytesView src, std::uint8_t* dst, const SweepStages& stages) noexcept;

}  // namespace ohpx::crypto
