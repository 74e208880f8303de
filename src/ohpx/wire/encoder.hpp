// XDR-style big-endian encoder.  All multi-byte integers go to the wire in
// network byte order; floats/doubles as their IEEE-754 bit patterns; byte
// blocks and strings as u32 length + raw bytes.  Mirrors Decoder exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "ohpx/common/endian.hpp"
#include "ohpx/wire/buffer.hpp"

namespace ohpx::wire {

class Encoder {
 public:
  /// Encodes into an externally owned buffer (appends at the end).
  explicit Encoder(Buffer& out) : out_(out) {}

  void put_u8(std::uint8_t v) { out_.append(v); }
  void put_u16(std::uint16_t v) { put_big_endian(v); }
  void put_u32(std::uint32_t v) { put_big_endian(v); }
  void put_u64(std::uint64_t v) { put_big_endian(v); }

  void put_i8(std::int8_t v) { put_u8(static_cast<std::uint8_t>(v)); }
  void put_i16(std::int16_t v) { put_u16(static_cast<std::uint16_t>(v)); }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_f32(float v) {
    static_assert(sizeof(float) == 4);
    put_u32(std::bit_cast<std::uint32_t>(v));
  }

  void put_f64(double v) {
    static_assert(sizeof(double) == 8);
    put_u64(std::bit_cast<std::uint64_t>(v));
  }

  /// u32 length followed by the raw bytes.
  void put_bytes(BytesView data) {
    put_u32(static_cast<std::uint32_t>(data.size()));
    out_.append(data);
  }

  void put_string(std::string_view text) {
    put_bytes(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                        text.size()));
  }

  /// Raw bytes without a length prefix (caller frames them).
  void put_raw(BytesView data) { out_.append(data); }

  Buffer& buffer() noexcept { return out_; }
  std::size_t size() const noexcept { return out_.size(); }

 private:
  template <typename T>
  void put_big_endian(T value) {
    const T wire_value = big_endian(value);
    out_.append(BytesView(reinterpret_cast<const std::uint8_t*>(&wire_value),
                          sizeof(T)));
  }

  Buffer& out_;
};

}  // namespace ohpx::wire
