// Byte-order helpers for the per-byte kernels (MAC, keystream, bulk
// marshalling).  Word loads and stores go through memcpy, never a
// type-punned pointer, so they are defined at any alignment and stay
// UBSan-clean; compilers lower them to single unaligned moves.  C++20 has
// std::endian but not std::byteswap, hence byteswap() below.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>

namespace ohpx {

/// Reverses the byte order of an unsigned integer.  Written as shifts and
/// masks rather than __builtin_bswap: compilers still emit one bswap for a
/// scalar, and can vectorize the pattern in a loop on targets whose vector
/// unit has no byte shuffle (baseline x86-64 is SSE2).
template <std::unsigned_integral U>
constexpr U byteswap(U v) noexcept {
  if constexpr (sizeof(U) == 1) {
    return v;
  } else if constexpr (sizeof(U) == 2) {
    return static_cast<U>((v << 8) | (v >> 8));
  } else if constexpr (sizeof(U) == 4) {
    return static_cast<U>((v << 24) | ((v << 8) & 0x00ff0000u) |
                          ((v >> 8) & 0x0000ff00u) | (v >> 24));
  } else {
    static_assert(sizeof(U) == 8);
    return static_cast<U>(
        (v << 56) | ((v << 40) & 0x00ff000000000000ull) |
        ((v << 24) & 0x0000ff0000000000ull) |
        ((v << 8) & 0x000000ff00000000ull) |
        ((v >> 8) & 0x00000000ff000000ull) |
        ((v >> 24) & 0x0000000000ff0000ull) |
        ((v >> 40) & 0x000000000000ff00ull) | (v >> 56));
  }
}

/// Converts a host-order value to big-endian (XDR) order and back: the
/// mapping is its own inverse, a no-op on big-endian hosts.
template <std::unsigned_integral U>
constexpr U big_endian(U v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else {
    return byteswap(v);
  }
}

/// Little-endian 64-bit word at `p` (any alignment).
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  return v;
}

/// Stores `v` at `p` as a little-endian 64-bit word (any alignment).
inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  std::memcpy(p, &v, sizeof v);
}

}  // namespace ohpx
