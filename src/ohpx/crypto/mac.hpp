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

/// SipHash-2-4 of `head ‖ tail` under `key`, streamed over the two spans
/// without joining them: the same value as the one-span form over the
/// concatenation, for any split point.
std::uint64_t siphash24(const Key128& key, BytesView head,
                        BytesView tail) noexcept;

/// SipHash-2-4 of `data` under `key`.
std::uint64_t siphash24(const Key128& key, BytesView data) noexcept;

/// 8-byte little-endian encoding of siphash24 over `head ‖ tail`.
MacTag mac_tag(const Key128& key, BytesView head, BytesView tail) noexcept;

/// 8-byte little-endian encoding of siphash24 — the wire form of a MAC tag.
Bytes mac_tag(const Key128& key, BytesView data);

/// Constant-time verification of a wire tag over `head ‖ tail`.
bool mac_verify(const Key128& key, BytesView head, BytesView tail,
                BytesView tag) noexcept;

/// Constant-time verification of a wire tag.
bool mac_verify(const Key128& key, BytesView data, BytesView tag) noexcept;

}  // namespace ohpx::crypto
