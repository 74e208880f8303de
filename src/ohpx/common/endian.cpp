#include "ohpx/common/endian.hpp"

namespace ohpx::detail {
namespace {

// One loop per width: each word through memcpy and byteswap(), which the
// compiler turns into vector byte shuffles where the target has them
// (AVX2's vpshufb) and into scalar bswaps where it does not.  Inlined into
// each kernel below, so each is that loop built for its own target.
template <std::unsigned_integral U>
[[gnu::always_inline]] inline void swap_words(void* dst, const void* src,
                                              std::size_t count) noexcept {
  auto* out = static_cast<std::uint8_t*>(dst);
  const auto* in = static_cast<const std::uint8_t*>(src);
  for (std::size_t i = 0; i < count; ++i) {
    U word = 0;
    std::memcpy(&word, in + i * sizeof(U), sizeof(U));
    word = byteswap(word);
    std::memcpy(out + i * sizeof(U), &word, sizeof(U));
  }
}

using Kernel = void (*)(void*, const void*, std::size_t) noexcept;

template <std::unsigned_integral U>
void swap_baseline(void* dst, const void* src, std::size_t count) noexcept {
  swap_words<U>(dst, src, count);
}

// Constant-initialized to the baseline kernels, so a call made before the
// binding below is correct, only slower.
Kernel swap16 = &swap_baseline<std::uint16_t>;
Kernel swap32 = &swap_baseline<std::uint32_t>;
Kernel swap64 = &swap_baseline<std::uint64_t>;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

template <std::unsigned_integral U>
[[gnu::target("avx2")]] void swap_avx2(void* dst, const void* src,
                                       std::size_t count) noexcept {
  swap_words<U>(dst, src, count);
}

// Binds the AVX2 kernels on a CPU that has AVX2, once, as the library
// loads: priority 101 runs before ordinary static initializers.  (A
// target_clones ifunc would bind them earlier still, at relocation, but
// ThreadSanitizer's runtime is not up then and the resolver crashes.)
[[gnu::constructor(101)]] void bind_kernels() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    swap16 = &swap_avx2<std::uint16_t>;
    swap32 = &swap_avx2<std::uint32_t>;
    swap64 = &swap_avx2<std::uint64_t>;
  }
}

#endif

}  // namespace

void copy_swapped16(void* dst, const void* src, std::size_t count) noexcept {
  swap16(dst, src, count);
}

void copy_swapped32(void* dst, const void* src, std::size_t count) noexcept {
  swap32(dst, src, count);
}

void copy_swapped64(void* dst, const void* src, std::size_t count) noexcept {
  swap64(dst, src, count);
}

}  // namespace ohpx::detail
