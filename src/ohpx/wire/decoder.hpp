// XDR-style big-endian decoder over a borrowed byte view.  Every read is
// bounds-checked and throws WireError(wire_truncated) past the end, so a
// corrupted or hostile frame can never read out of bounds.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "ohpx/common/bytes.hpp"
#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"

namespace ohpx::wire {

class Decoder {
 public:
  explicit Decoder(BytesView data) : data_(data) {}

  std::uint8_t get_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint16_t get_u16() { return get_big_endian<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_big_endian<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_big_endian<std::uint64_t>(); }

  std::int8_t get_i8() { return static_cast<std::int8_t>(get_u8()); }
  std::int16_t get_i16() { return static_cast<std::int16_t>(get_u16()); }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  bool get_bool() {
    const std::uint8_t v = get_u8();
    if (v > 1) {
      throw WireError(ErrorCode::wire_bad_value, "bool byte not 0/1");
    }
    return v == 1;
  }

  float get_f32() { return std::bit_cast<float>(get_u32()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }

  /// u32 length + raw bytes, as written by Encoder::put_bytes.
  Bytes get_bytes() {
    const std::uint32_t len = get_u32();
    require(len);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  /// Zero-copy view variant of get_bytes; valid while the backing store lives.
  BytesView get_bytes_view() {
    const std::uint32_t len = get_u32();
    require(len);
    BytesView out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  std::string get_string() {
    BytesView raw = get_bytes_view();
    return std::string(raw.begin(), raw.end());
  }

  /// Raw bytes without a length prefix.
  BytesView get_raw(std::size_t count) {
    require(count);
    BytesView out = data_.subspan(pos_, count);
    pos_ += count;
    return out;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  /// Fails decode unless the entire input was consumed (strict framing).
  void expect_end() const {
    if (!at_end()) {
      throw WireError(ErrorCode::wire_bad_value,
                      "trailing bytes after decoded value");
    }
  }

 private:
  void require(std::size_t count) const {
    if (count > data_.size() - pos_) {
      throw WireError(ErrorCode::wire_truncated, "decode past end of buffer");
    }
  }

  template <typename T>
  T get_big_endian() {
    require(sizeof(T));
    T wire_value = 0;
    std::memcpy(&wire_value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return big_endian(wire_value);
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace ohpx::wire
