#include "ohpx/wire/crc.hpp"

#include <array>

#include "ohpx/common/endian.hpp"

namespace ohpx::wire {
namespace {

// Slicing-by-4: table[0] is the classic byte-at-a-time table, table[k]
// extends it so one iteration folds four message bytes into the state.
// Every frame header pays a CRC on encode and again on decode, so this
// runs four times per in-process call.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 4>;

SliceTables build_tables() noexcept {
  SliceTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < tables.size(); ++k) {
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xffu];
    }
  }
  return tables;
}

const SliceTables& tables() noexcept {
  static const auto t = build_tables();
  return t;
}

}  // namespace

void Crc32::update(BytesView data) noexcept {
  const auto& t = tables();
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 4) {
    c ^= load_le<std::uint32_t>(p);
    c = t[3][c & 0xffu] ^ t[2][(c >> 8) & 0xffu] ^ t[1][(c >> 16) & 0xffu] ^
        t[0][(c >> 24) & 0xffu];
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(BytesView data) noexcept {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace ohpx::wire
