// Generic (de)serialization over Encoder/Decoder.
//
// Built-in support: bool, integral and floating scalars, std::string,
// Bytes, std::vector<T>, std::array<T,N>, std::pair, std::map,
// std::optional.  Vectors of arithmetic scalars marshal in bulk (one
// resize or bounds check, then a byte-swap pass) to the same bytes as the
// element-wise path every other element type takes.  User types opt in by
// providing member functions
//   void wire_serialize(wire::Encoder&) const;
//   static T wire_deserialize(wire::Decoder&);
// which the WireSerializable concept detects.
//
// The top-level helpers `encode_value` / `decode_value` are what the RMI
// stub layer uses to marshal argument packs.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ohpx/common/endian.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::wire {

template <typename T>
concept WireSerializable = requires(const T& cv, T& v, Encoder& enc, Decoder& dec) {
  { cv.wire_serialize(enc) } -> std::same_as<void>;
  { T::wire_deserialize(dec) } -> std::same_as<T>;
};

// ---- element traits ----------------------------------------------------

/// Element types whose vectors take the bulk path: fixed-width arithmetic
/// scalars other than bool (which the wire restricts to 0/1 per byte).
template <typename T>
concept BulkScalar = std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
                     (sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                      sizeof(T) == 8);

/// The unsigned word a BulkScalar travels as (its IEEE-754 bits for floats).
template <BulkScalar T>
using WireWord = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>>>;

template <typename T>
inline constexpr bool kLengthPrefixed = false;
template <>
inline constexpr bool kLengthPrefixed<std::string> = true;
template <typename T>
inline constexpr bool kLengthPrefixed<std::vector<T>> = true;  // and Bytes
template <typename K, typename V>
inline constexpr bool kLengthPrefixed<std::map<K, V>> = true;

/// Fewest bytes one value of T can encode to: the decoders' bound on how
/// many elements the remaining input can possibly hold.
template <typename T>
constexpr std::size_t min_encoded_size() noexcept {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_enum_v<T>) {
    return sizeof(std::underlying_type_t<T>);
  } else if constexpr (kLengthPrefixed<T>) {
    return 4;  // u32 length or count
  } else {
    return 1;
  }
}

// ---- scalars ---------------------------------------------------------

inline void serialize(Encoder& enc, bool v) { enc.put_bool(v); }
inline void serialize(Encoder& enc, std::uint8_t v) { enc.put_u8(v); }
inline void serialize(Encoder& enc, std::uint16_t v) { enc.put_u16(v); }
inline void serialize(Encoder& enc, std::uint32_t v) { enc.put_u32(v); }
inline void serialize(Encoder& enc, std::uint64_t v) { enc.put_u64(v); }
inline void serialize(Encoder& enc, std::int8_t v) { enc.put_i8(v); }
inline void serialize(Encoder& enc, std::int16_t v) { enc.put_i16(v); }
inline void serialize(Encoder& enc, std::int32_t v) { enc.put_i32(v); }
inline void serialize(Encoder& enc, std::int64_t v) { enc.put_i64(v); }
inline void serialize(Encoder& enc, float v) { enc.put_f32(v); }
inline void serialize(Encoder& enc, double v) { enc.put_f64(v); }
inline void serialize(Encoder& enc, const std::string& v) { enc.put_string(v); }

template <typename T>
  requires std::is_enum_v<T>
void serialize(Encoder& enc, T v) {
  serialize(enc, static_cast<std::underlying_type_t<T>>(v));
}

template <WireSerializable T>
void serialize(Encoder& enc, const T& v) {
  v.wire_serialize(enc);
}

// Forward declarations so nested containers resolve.
template <typename T>
void serialize(Encoder& enc, const std::vector<T>& v);
template <typename T, std::size_t N>
void serialize(Encoder& enc, const std::array<T, N>& v);
template <typename A, typename B>
void serialize(Encoder& enc, const std::pair<A, B>& v);
template <typename K, typename V>
void serialize(Encoder& enc, const std::map<K, V>& v);
template <typename T>
void serialize(Encoder& enc, const std::optional<T>& v);

inline void serialize(Encoder& enc, const Bytes& v) { enc.put_bytes(v); }

template <typename T>
void serialize(Encoder& enc, const std::vector<T>& v) {
  enc.put_u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (BulkScalar<T>) {
    // One resize and one byte-swap pass; the bytes are the element-wise
    // encoder's: each element big-endian, back to back.
    using Word = WireWord<T>;
    const std::size_t n = v.size();
    const T* src = v.data();
    Buffer& out = enc.buffer();
    const std::size_t at = out.size();
    out.resize(at + n * sizeof(T));
    std::uint8_t* dst = out.data() + at;
    for (std::size_t i = 0; i < n; ++i) {
      const Word word = big_endian(std::bit_cast<Word>(src[i]));
      std::memcpy(dst + i * sizeof(T), &word, sizeof(T));
    }
  } else {
    for (const auto& item : v) serialize(enc, item);
  }
}

template <typename T, std::size_t N>
void serialize(Encoder& enc, const std::array<T, N>& v) {
  for (const auto& item : v) serialize(enc, item);
}

template <typename A, typename B>
void serialize(Encoder& enc, const std::pair<A, B>& v) {
  serialize(enc, v.first);
  serialize(enc, v.second);
}

template <typename K, typename V>
void serialize(Encoder& enc, const std::map<K, V>& v) {
  enc.put_u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& [key, value] : v) {
    serialize(enc, key);
    serialize(enc, value);
  }
}

template <typename T>
void serialize(Encoder& enc, const std::optional<T>& v) {
  enc.put_bool(v.has_value());
  if (v) serialize(enc, *v);
}

// ---- deserialize (tag dispatch on type) -------------------------------

template <typename T>
struct Deserializer;

template <>
struct Deserializer<bool> {
  static bool get(Decoder& dec) { return dec.get_bool(); }
};
template <>
struct Deserializer<std::uint8_t> {
  static std::uint8_t get(Decoder& dec) { return dec.get_u8(); }
};
template <>
struct Deserializer<std::uint16_t> {
  static std::uint16_t get(Decoder& dec) { return dec.get_u16(); }
};
template <>
struct Deserializer<std::uint32_t> {
  static std::uint32_t get(Decoder& dec) { return dec.get_u32(); }
};
template <>
struct Deserializer<std::uint64_t> {
  static std::uint64_t get(Decoder& dec) { return dec.get_u64(); }
};
template <>
struct Deserializer<std::int8_t> {
  static std::int8_t get(Decoder& dec) { return dec.get_i8(); }
};
template <>
struct Deserializer<std::int16_t> {
  static std::int16_t get(Decoder& dec) { return dec.get_i16(); }
};
template <>
struct Deserializer<std::int32_t> {
  static std::int32_t get(Decoder& dec) { return dec.get_i32(); }
};
template <>
struct Deserializer<std::int64_t> {
  static std::int64_t get(Decoder& dec) { return dec.get_i64(); }
};
template <>
struct Deserializer<float> {
  static float get(Decoder& dec) { return dec.get_f32(); }
};
template <>
struct Deserializer<double> {
  static double get(Decoder& dec) { return dec.get_f64(); }
};
template <>
struct Deserializer<std::string> {
  static std::string get(Decoder& dec) { return dec.get_string(); }
};

template <typename T>
  requires std::is_enum_v<T>
struct Deserializer<T> {
  static T get(Decoder& dec) {
    return static_cast<T>(Deserializer<std::underlying_type_t<T>>::get(dec));
  }
};

template <WireSerializable T>
struct Deserializer<T> {
  static T get(Decoder& dec) { return T::wire_deserialize(dec); }
};

template <typename T>
struct Deserializer<std::vector<T>> {
  static std::vector<T> get(Decoder& dec) {
    const std::uint32_t n = dec.get_u32();
    // Guard against hostile counts before allocating: each element takes
    // at least min_encoded_size<T>() bytes, so a count the remaining bytes
    // cannot hold is a truncated frame.  A scalar vector's claim is checked
    // exactly, so it never allocates more than the frame carries.
    if (std::uint64_t{n} * min_encoded_size<T>() > dec.remaining()) {
      throw WireError(ErrorCode::wire_truncated,
                      "vector count exceeds remaining bytes");
    }
    std::vector<T> out;
    if constexpr (BulkScalar<T>) {
      using Word = WireWord<T>;
      const std::uint8_t* src = dec.get_raw(n * sizeof(T)).data();
      out.resize(n);
      T* dst = out.data();
      for (std::size_t i = 0; i < n; ++i) {
        Word word = 0;
        std::memcpy(&word, src + i * sizeof(T), sizeof(T));
        dst[i] = std::bit_cast<T>(big_endian(word));
      }
    } else {
      out.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        out.push_back(Deserializer<T>::get(dec));
      }
    }
    return out;
  }
};

template <>
struct Deserializer<Bytes> {
  static Bytes get(Decoder& dec) { return dec.get_bytes(); }
};

template <typename T, std::size_t N>
struct Deserializer<std::array<T, N>> {
  static std::array<T, N> get(Decoder& dec) {
    std::array<T, N> out{};
    for (auto& item : out) item = Deserializer<T>::get(dec);
    return out;
  }
};

template <typename A, typename B>
struct Deserializer<std::pair<A, B>> {
  static std::pair<A, B> get(Decoder& dec) {
    A a = Deserializer<A>::get(dec);
    B b = Deserializer<B>::get(dec);
    return {std::move(a), std::move(b)};
  }
};

template <typename K, typename V>
struct Deserializer<std::map<K, V>> {
  static std::map<K, V> get(Decoder& dec) {
    const std::uint32_t n = dec.get_u32();
    std::map<K, V> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      K key = Deserializer<K>::get(dec);
      V value = Deserializer<V>::get(dec);
      out.emplace(std::move(key), std::move(value));
    }
    return out;
  }
};

template <typename T>
struct Deserializer<std::optional<T>> {
  static std::optional<T> get(Decoder& dec) {
    if (!dec.get_bool()) return std::nullopt;
    return Deserializer<T>::get(dec);
  }
};

template <typename T>
T deserialize(Decoder& dec) {
  return Deserializer<std::remove_cvref_t<T>>::get(dec);
}

// ---- whole-value helpers ----------------------------------------------

/// Serializes a single value into a fresh buffer.
template <typename T>
Buffer encode_value(const T& value) {
  Buffer buf;
  Encoder enc(buf);
  serialize(enc, value);
  return buf;
}

/// Decodes a single value that must occupy the entire view.
template <typename T>
T decode_value(BytesView data) {
  Decoder dec(data);
  T value = deserialize<T>(dec);
  dec.expect_end();
  return value;
}

/// Serializes an argument pack in order (RMI argument marshalling).
template <typename... Args>
void serialize_all(Encoder& enc, const Args&... args) {
  (serialize(enc, args), ...);
}

}  // namespace ohpx::wire
