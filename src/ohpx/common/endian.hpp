// Byte-order helpers: the one place src/ packs an integer into bytes or
// unpacks one (the ohpx-lint byte-order rule keeps it so) — frame and
// header fields, capability trailers, the journal, and the per-byte
// kernels (MAC, keystream, CRC, bulk marshalling; the last through
// copy_big_endian, whose loops live in endian.cpp).  Loads and stores go
// through memcpy, never a type-punned pointer, so they are defined at any
// alignment and stay UBSan-clean; compilers lower them to single
// unaligned moves.  C++20 has std::endian but not std::byteswap, hence
// byteswap() below.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
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

/// The unsigned integer stored big-endian (network / XDR order) at `p`,
/// at any alignment.
template <std::unsigned_integral U>
inline U load_be(const std::uint8_t* p) noexcept {
  U v;
  std::memcpy(&v, p, sizeof v);
  return big_endian(v);
}

/// Stores `v` at `p` big-endian (any alignment).
template <std::unsigned_integral U>
inline void store_be(std::uint8_t* p, U v) noexcept {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof v);
}

/// The unsigned integer stored little-endian at `p` (any alignment).
template <std::unsigned_integral U>
inline U load_le(const std::uint8_t* p) noexcept {
  U v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  return v;
}

/// Stores `v` at `p` little-endian (any alignment).
template <std::unsigned_integral U>
inline void store_le(std::uint8_t* p, U v) noexcept {
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  std::memcpy(p, &v, sizeof v);
}

namespace detail {

// The byte-swapping copies behind copy_big_endian (endian.cpp), one per
// word width.
void copy_swapped16(void* dst, const void* src, std::size_t count) noexcept;
void copy_swapped32(void* dst, const void* src, std::size_t count) noexcept;
void copy_swapped64(void* dst, const void* src, std::size_t count) noexcept;

}  // namespace detail

/// Copies `count` words of sizeof(U) bytes from `src` to `dst` (any
/// alignment; the ranges must not overlap) converting each between host
/// and big-endian order: store_be over an array of host words, or load_be
/// into one.  On x86-64 the swap runs on AVX2 where the CPU has it.
template <std::unsigned_integral U>
inline void copy_big_endian(void* dst, const void* src,
                            std::size_t count) noexcept {
  if constexpr (sizeof(U) == 1 || std::endian::native == std::endian::big) {
    if (count != 0) std::memcpy(dst, src, count * sizeof(U));
  } else if constexpr (sizeof(U) == 2) {
    detail::copy_swapped16(dst, src, count);
  } else if constexpr (sizeof(U) == 4) {
    detail::copy_swapped32(dst, src, count);
  } else {
    static_assert(sizeof(U) == 8);
    detail::copy_swapped64(dst, src, count);
  }
}

}  // namespace ohpx
