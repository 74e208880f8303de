// Unit tests for the wire layer: encoder/decoder primitives, serialization
// traits, CRC-32, and frame encode/decode including hostile inputs.
#include <gtest/gtest.h>

#include <map>
#include <cmath>
#include <cstring>
#include <optional>

#include "ohpx/common/rng.hpp"
#include "ohpx/wire/crc.hpp"
#include "ohpx/wire/message.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::wire {
namespace {

// ---- encoder layout ---------------------------------------------------

TEST(Encoder, BigEndianLayoutU16) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_u16(0x1234);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.data()[0], 0x12);
  EXPECT_EQ(buf.data()[1], 0x34);
}

TEST(Encoder, BigEndianLayoutU32) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_u32(0xdeadbeef);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.data()[0], 0xde);
  EXPECT_EQ(buf.data()[3], 0xef);
}

TEST(Encoder, BigEndianLayoutU64) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_u64(0x0102030405060708ull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.data()[0], 0x01);
  EXPECT_EQ(buf.data()[7], 0x08);
}

TEST(Encoder, StringIsLengthPrefixed) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_string("ab");
  ASSERT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf.data()[3], 2u);  // length 2 in the low byte of the u32
  EXPECT_EQ(buf.data()[4], 'a');
}

// ---- scalar round trips -------------------------------------------------

template <typename T>
void roundtrip_equal(const T& value) {
  Buffer buf = encode_value(value);
  EXPECT_EQ(decode_value<T>(buf.view()), value);
}

TEST(RoundTrip, Scalars) {
  roundtrip_equal<bool>(true);
  roundtrip_equal<bool>(false);
  roundtrip_equal<std::uint8_t>(0xff);
  roundtrip_equal<std::int8_t>(-1);
  roundtrip_equal<std::uint16_t>(65535);
  roundtrip_equal<std::int16_t>(-32768);
  roundtrip_equal<std::uint32_t>(0xffffffffu);
  roundtrip_equal<std::int32_t>(-2147483647);
  roundtrip_equal<std::uint64_t>(~0ull);
  roundtrip_equal<std::int64_t>(std::numeric_limits<std::int64_t>::min());
  roundtrip_equal<float>(3.14159f);
  roundtrip_equal<double>(-2.718281828459045);
  roundtrip_equal<float>(-0.0f);
  roundtrip_equal<double>(std::numeric_limits<double>::infinity());
}

TEST(RoundTrip, NaNPreservesBitPattern) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Buffer buf = encode_value(nan);
  const double back = decode_value<double>(buf.view());
  EXPECT_TRUE(std::isnan(back));
}

TEST(RoundTrip, StringsIncludingEmbeddedNul) {
  roundtrip_equal<std::string>("");
  roundtrip_equal<std::string>("hello");
  roundtrip_equal<std::string>(std::string("a\0b", 3));
  roundtrip_equal<std::string>(std::string(100000, 'x'));
}

enum class Color : std::uint16_t { red = 1, green = 2, blue = 999 };

TEST(RoundTrip, Enums) { roundtrip_equal<Color>(Color::blue); }

// ---- containers ---------------------------------------------------------

TEST(RoundTrip, Containers) {
  roundtrip_equal<std::vector<std::int32_t>>({});
  roundtrip_equal<std::vector<std::int32_t>>({1, -2, 3});
  roundtrip_equal<Bytes>({0x00, 0xff, 0x7f});
  roundtrip_equal<std::vector<std::string>>({"a", "", "ccc"});
  roundtrip_equal<std::pair<std::int32_t, std::string>>({7, "seven"});
  roundtrip_equal<std::map<std::string, std::uint64_t>>(
      {{"one", 1}, {"two", 2}});
  roundtrip_equal<std::optional<std::int32_t>>(std::nullopt);
  roundtrip_equal<std::optional<std::int32_t>>(42);
  roundtrip_equal<std::array<std::int16_t, 4>>({{1, 2, 3, 4}});
  roundtrip_equal<std::vector<std::vector<std::uint8_t>>>({{1}, {}, {2, 3}});
  roundtrip_equal<std::map<std::int32_t, std::vector<std::string>>>(
      {{1, {"a", "b"}}, {2, {}}});
}

struct Point {
  std::int32_t x = 0;
  std::int32_t y = 0;

  void wire_serialize(Encoder& enc) const {
    enc.put_i32(x);
    enc.put_i32(y);
  }
  static Point wire_deserialize(Decoder& dec) {
    Point p;
    p.x = dec.get_i32();
    p.y = dec.get_i32();
    return p;
  }
  friend bool operator==(const Point&, const Point&) = default;
};

TEST(RoundTrip, UserTypesViaConcept) {
  static_assert(WireSerializable<Point>);
  roundtrip_equal<Point>({3, -4});
  roundtrip_equal<std::vector<Point>>({{1, 2}, {3, 4}});
  roundtrip_equal<std::optional<Point>>(Point{9, 9});
}

TEST(RoundTrip, ArgumentPacksInOrder) {
  Buffer buf;
  Encoder enc(buf);
  serialize_all(enc, std::int32_t{1}, std::string("two"), 3.0);
  Decoder dec(buf.view());
  EXPECT_EQ(deserialize<std::int32_t>(dec), 1);
  EXPECT_EQ(deserialize<std::string>(dec), "two");
  EXPECT_EQ(deserialize<double>(dec), 3.0);
  EXPECT_TRUE(dec.at_end());
}

// ---- decoder failure modes -----------------------------------------------

TEST(Decoder, TruncatedScalarThrows) {
  const Bytes raw = {0x01, 0x02};
  Decoder dec(raw);
  EXPECT_THROW(dec.get_u32(), WireError);
}

TEST(Decoder, TruncatedBytesThrows) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_u32(100);  // claims 100 bytes follow; none do
  Decoder dec(buf.view());
  EXPECT_THROW(dec.get_bytes(), WireError);
}

TEST(Decoder, BadBoolByteThrows) {
  const Bytes raw = {0x02};
  Decoder dec(raw);
  EXPECT_THROW(dec.get_bool(), WireError);
}

TEST(Decoder, TrailingBytesDetected) {
  const Bytes raw = {0x00, 0x01};
  Decoder dec(raw);
  dec.get_u8();
  EXPECT_THROW(dec.expect_end(), WireError);
  dec.get_u8();
  EXPECT_NO_THROW(dec.expect_end());
}

TEST(Decoder, HostileVectorCountRejected) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_u32(0xffffffffu);  // 4 billion elements, zero bytes of data
  Decoder dec(buf.view());
  EXPECT_THROW(deserialize<std::vector<std::int32_t>>(dec), WireError);
}

TEST(Decoder, DecodeValueRejectsTrailingGarbage) {
  Buffer buf = encode_value(std::int32_t{5});
  buf.append(0x00);
  EXPECT_THROW(decode_value<std::int32_t>(buf.view()), WireError);
}

TEST(Decoder, RemainingAndPositionTrack) {
  const Bytes raw = {1, 2, 3, 4};
  Decoder dec(raw);
  EXPECT_EQ(dec.remaining(), 4u);
  dec.get_u16();
  EXPECT_EQ(dec.position(), 2u);
  EXPECT_EQ(dec.remaining(), 2u);
}

TEST(Decoder, RawAndViewAccessors) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_raw(BytesView(Bytes{1, 2, 3, 4, 5}));
  Decoder dec(buf.view());
  const BytesView head = dec.get_raw(2);
  EXPECT_EQ(head[0], 1);
  EXPECT_EQ(head[1], 2);
  EXPECT_EQ(dec.remaining(), 3u);
  EXPECT_THROW(dec.get_raw(4), WireError);
}

TEST(Decoder, BytesViewIsZeroCopy) {
  Buffer buf;
  Encoder enc(buf);
  enc.put_bytes(Bytes{9, 8, 7});
  Decoder dec(buf.view());
  const BytesView view = dec.get_bytes_view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), buf.data() + 4);  // points into the backing store
}

// ---- buffer ----------------------------------------------------------------

TEST(BufferTest, ReleaseLeavesEmpty) {
  Buffer buf;
  buf.append(BytesView(Bytes{1, 2, 3}));
  Bytes taken = buf.release();
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_TRUE(buf.empty());
}

TEST(BufferTest, SubrangeViewClamped) {
  Buffer buf(Bytes{1, 2, 3, 4});
  EXPECT_EQ(buf.view(2, 10).size(), 2u);
  EXPECT_EQ(buf.view(9, 1).size(), 0u);
}

// ---- CRC-32 -----------------------------------------------------------------

TEST(Crc, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xe8b7be43u);
  EXPECT_EQ(crc32(bytes_of("abc")), 0x352441c2u);
}

TEST(Crc, IncrementalMatchesOneShot) {
  const Bytes data = bytes_of("the quick brown fox jumps over the lazy dog");
  Crc32 crc;
  crc.update(BytesView(data.data(), 10));
  crc.update(BytesView(data.data() + 10, data.size() - 10));
  EXPECT_EQ(crc.value(), crc32(data));
}

// ---- sanitizer-hardening round trips ----------------------------------------
// Probes chosen for UBSan/ASan instrumented runs (docs/static_analysis.md):
// misaligned multi-byte reads, shift/conversion edge values, length
// arithmetic at the u32 boundary.  They must of course also pass plain.

TEST(RoundTrip, IntegerExtremesAtEveryMisalignment) {
  // Pad by 1..7 bytes so every multi-byte value sits at every possible
  // misaligned offset; a decoder shortcut that reinterpreted memory
  // instead of assembling bytes would trip UBSan's alignment check.
  for (std::size_t pad = 1; pad <= 7; ++pad) {
    Buffer buf;
    Encoder enc(buf);
    for (std::size_t i = 0; i < pad; ++i) enc.put_u8(0xa5);
    enc.put_i64(std::numeric_limits<std::int64_t>::min());
    enc.put_i64(std::numeric_limits<std::int64_t>::max());
    enc.put_u64(~0ull);
    enc.put_i32(std::numeric_limits<std::int32_t>::min());
    enc.put_i16(std::numeric_limits<std::int16_t>::min());
    enc.put_u16(0xffffu);
    enc.put_f64(-std::numeric_limits<double>::denorm_min());
    enc.put_f32(std::numeric_limits<float>::denorm_min());

    Decoder dec(buf.view());
    for (std::size_t i = 0; i < pad; ++i) EXPECT_EQ(dec.get_u8(), 0xa5);
    EXPECT_EQ(dec.get_i64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(dec.get_i64(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(dec.get_u64(), ~0ull);
    EXPECT_EQ(dec.get_i32(), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(dec.get_i16(), std::numeric_limits<std::int16_t>::min());
    EXPECT_EQ(dec.get_u16(), 0xffffu);
    EXPECT_EQ(dec.get_f64(), -std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(dec.get_f32(), std::numeric_limits<float>::denorm_min());
    EXPECT_NO_THROW(dec.expect_end());
  }
}

TEST(Decoder, EmptyViewFailsClosed) {
  Decoder dec(BytesView{});
  EXPECT_TRUE(dec.at_end());
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_THROW(dec.get_u8(), WireError);
  EXPECT_THROW(dec.get_u64(), WireError);
  EXPECT_THROW(dec.get_bytes(), WireError);
  EXPECT_THROW(dec.get_raw(1), WireError);
  EXPECT_NO_THROW(dec.expect_end());
}

TEST(Decoder, LengthPrefixNearU32MaxRejectedWithoutOverflow) {
  // pos_ + 0xffffffff would wrap a 32-bit accumulator; the bounds check
  // must compare against the remaining bytes, not the wrapped sum.
  for (const std::uint32_t hostile :
       {0xffffffffu, 0xfffffffeu, 0x80000000u}) {
    Buffer buf;
    Encoder enc(buf);
    enc.put_u32(hostile);
    enc.put_u8(0x00);  // one byte of "payload", far short of the claim
    Decoder dec(buf.view());
    EXPECT_THROW(dec.get_bytes(), WireError);
  }
}

ErrorCode decode_error_of(const Buffer& buf, auto decode) {
  try {
    Decoder dec(buf.view());
    decode(dec);
  } catch (const WireError& e) {
    return e.code();
  }
  return ErrorCode::ok;
}

TEST(Decoder, HostileScalarVectorCountRejectedBeforeAllocating) {
  // 100 eight-byte elements claimed, 400 bytes present: fewer than the
  // claim needs, though more than one byte per element.
  Buffer buf;
  Encoder enc(buf);
  enc.put_u32(100);
  for (int i = 0; i < 400; ++i) enc.put_u8(0);
  EXPECT_EQ(decode_error_of(buf,
                            [](Decoder& dec) {
                              deserialize<std::vector<std::uint64_t>>(dec);
                            }),
            ErrorCode::wire_truncated);
  EXPECT_EQ(decode_error_of(buf,
                            [](Decoder& dec) {
                              deserialize<std::vector<double>>(dec);
                            }),
            ErrorCode::wire_truncated);
  // 100 two-byte elements fit in 400 bytes.
  EXPECT_EQ(decode_error_of(buf,
                            [](Decoder& dec) {
                              deserialize<std::vector<std::int16_t>>(dec);
                            }),
            ErrorCode::ok);
  for (const std::uint32_t hostile : {0xffffffffu, 0x80000000u, 0x40000000u}) {
    Buffer near_max;
    Encoder near_enc(near_max);
    near_enc.put_u32(hostile);
    near_enc.put_u64(0);
    EXPECT_EQ(decode_error_of(near_max,
                              [](Decoder& dec) {
                                deserialize<std::vector<std::uint64_t>>(dec);
                              }),
              ErrorCode::wire_truncated)
        << hostile;
  }
}

TEST(Decoder, HostileLengthPrefixedVectorCountRejected) {
  // Each string, byte block or vector element needs at least its 4-byte
  // length; 10 elements cannot fit in 12 bytes.
  Buffer buf;
  Encoder enc(buf);
  enc.put_u32(10);
  for (int i = 0; i < 12; ++i) enc.put_u8(0);
  EXPECT_EQ(decode_error_of(buf,
                            [](Decoder& dec) {
                              deserialize<std::vector<std::string>>(dec);
                            }),
            ErrorCode::wire_truncated);
  EXPECT_EQ(decode_error_of(buf,
                            [](Decoder& dec) {
                              deserialize<std::vector<Bytes>>(dec);
                            }),
            ErrorCode::wire_truncated);
  using Nested = std::vector<std::vector<std::int32_t>>;
  EXPECT_EQ(decode_error_of(buf,
                            [](Decoder& dec) {
                              deserialize<Nested>(dec);
                            }),
            ErrorCode::wire_truncated);
  // Three empty strings fit exactly.
  Buffer fits;
  Encoder fits_enc(fits);
  fits_enc.put_u32(3);
  for (int i = 0; i < 3; ++i) fits_enc.put_u32(0);
  EXPECT_EQ(decode_value<std::vector<std::string>>(fits.view()),
            (std::vector<std::string>{"", "", ""}));
}

// ---- bulk scalar vectors: the same bytes as the element-wise encoder --------

template <typename T>
class BulkVectorEncoding : public ::testing::Test {};

using BulkScalarTypes =
    ::testing::Types<std::int16_t, std::int32_t, std::uint64_t, float, double>;
TYPED_TEST_SUITE(BulkVectorEncoding, BulkScalarTypes);

TYPED_TEST(BulkVectorEncoding, MatchesElementWiseEncoder) {
  using T = TypeParam;
  Xoshiro256 rng(0xb01c);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{65536}}) {
    std::vector<T> values(n);
    for (auto& v : values) {
      if constexpr (std::is_floating_point_v<T>) {
        v = static_cast<T>((rng.next_double() - 0.5) * 1e9);
      } else {
        v = static_cast<T>(rng.next());
      }
    }
    Buffer element_wise;
    Encoder enc(element_wise);
    enc.put_u32(static_cast<std::uint32_t>(n));
    for (const T v : values) serialize(enc, v);

    const Buffer bulk = encode_value(values);
    EXPECT_EQ(bulk.bytes(), element_wise.bytes()) << "length " << n;
    EXPECT_EQ(decode_value<std::vector<T>>(element_wise.view()), values)
        << "length " << n;
  }
}

TYPED_TEST(BulkVectorEncoding, AppendsAfterEarlierFieldsAtAnyOffset) {
  using T = TypeParam;
  const std::vector<T> values{T(1), T(2), T(3)};
  for (std::size_t pad = 0; pad < 8; ++pad) {
    Buffer buf;
    Encoder enc(buf);
    for (std::size_t i = 0; i < pad; ++i) enc.put_u8(0xa5);
    serialize(enc, values);
    enc.put_u8(0x5a);
    Decoder dec(buf.view());
    for (std::size_t i = 0; i < pad; ++i) EXPECT_EQ(dec.get_u8(), 0xa5);
    EXPECT_EQ(deserialize<std::vector<T>>(dec), values);
    EXPECT_EQ(dec.get_u8(), 0x5a);
    EXPECT_TRUE(dec.at_end());
  }
}

// ---- the byte-swapping copy kernel (common/endian.hpp) ----------------------

// copy_big_endian over every count 0-67 (past two AVX2 vectors of every
// width, so each vector loop and each scalar tail runs) from and to every
// misalignment, against the element-wise encoder; the bytes around the
// destination stay untouched.
template <typename U>
void check_copy_big_endian() {
  Xoshiro256 rng(0xe4d1 + sizeof(U));
  for (std::size_t count = 0; count <= 67; ++count) {
    std::vector<U> values(count);
    for (auto& v : values) v = static_cast<U>(rng.next());
    Buffer expected;
    Encoder enc(expected);
    for (const U v : values) serialize(enc, v);
    const std::size_t size = count * sizeof(U);

    for (std::size_t src_at = 0; src_at < sizeof(U) + 1; ++src_at) {
      for (std::size_t dst_at = 0; dst_at < sizeof(U) + 1; ++dst_at) {
        // Host words to wire bytes.
        Bytes src(size + 2 * sizeof(U), 0x11);
        if (size != 0) std::memcpy(src.data() + src_at, values.data(), size);
        Bytes dst(size + 2 * sizeof(U) + 1, 0xee);
        copy_big_endian<U>(dst.data() + dst_at + 1, src.data() + src_at,
                           count);
        EXPECT_EQ(Bytes(dst.begin() + dst_at + 1,
                        dst.begin() + dst_at + 1 + size),
                  expected.bytes())
            << sizeof(U) << "-byte words, count " << count << ", src +"
            << src_at << ", dst +" << dst_at;
        EXPECT_EQ(dst[dst_at], 0xee);
        EXPECT_EQ(dst[dst_at + 1 + size], 0xee);

        // Wire bytes back to host words.
        Bytes wire(size + 2 * sizeof(U), 0x22);
        std::copy(expected.bytes().begin(), expected.bytes().end(),
                  wire.begin() + src_at);
        Bytes host(size + 2 * sizeof(U) + 1, 0xee);
        copy_big_endian<U>(host.data() + dst_at + 1, wire.data() + src_at,
                           count);
        std::vector<U> back(count);
        if (size != 0) std::memcpy(back.data(), host.data() + dst_at + 1, size);
        EXPECT_EQ(back, values) << sizeof(U) << "-byte words, count " << count
                                << ", src +" << src_at << ", dst +" << dst_at;
        EXPECT_EQ(host[dst_at], 0xee);
        EXPECT_EQ(host[dst_at + 1 + size], 0xee);
      }
    }
  }
}

TEST(CopyBigEndian, MatchesTheElementWiseEncoderAtEveryCountAndAlignment) {
  check_copy_big_endian<std::uint16_t>();
  check_copy_big_endian<std::uint32_t>();
  check_copy_big_endian<std::uint64_t>();
}

TEST(Crc, SplitAtEveryOffsetMatchesOneShot) {
  Bytes data(37);
  Xoshiro256 rng(0x5eed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t whole = crc32(BytesView(data));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 crc;
    crc.update(BytesView(data.data(), split));
    crc.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(crc.value(), whole) << "split at " << split;
  }
}

// ---- frames ------------------------------------------------------------------

MessageHeader sample_header() {
  MessageHeader header;
  header.type = MessageType::request;
  header.flags = kFlagGlueProcessed;
  header.request_id = 0x1122334455667788ull;
  header.object_id = 42;
  header.method_or_code = 7;
  return header;
}

TEST(Frame, RoundTrip) {
  const Bytes body = {9, 8, 7};
  Buffer frame = encode_frame(sample_header(), body);
  EXPECT_EQ(frame.size(), kHeaderSize + body.size());

  BytesView parsed_body;
  const MessageHeader parsed = decode_frame(frame.view(), parsed_body);
  EXPECT_EQ(parsed, sample_header());
  EXPECT_EQ(Bytes(parsed_body.begin(), parsed_body.end()), body);
}

TEST(Frame, EmptyBody) {
  Buffer frame = encode_frame(sample_header(), {});
  BytesView body;
  decode_frame(frame.view(), body);
  EXPECT_TRUE(body.empty());
}

TEST(Frame, ShortFrameRejected) {
  const Bytes tiny = {1, 2, 3};
  BytesView body;
  EXPECT_THROW(decode_frame(tiny, body), WireError);
}

TEST(Frame, BadMagicRejected) {
  Buffer frame = encode_frame(sample_header(), {});
  frame.data()[0] ^= 0xff;
  BytesView body;
  try {
    decode_frame(frame.view(), body);
    FAIL();
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), ErrorCode::wire_bad_magic);
  }
}

TEST(Frame, BadVersionRejected) {
  Buffer frame = encode_frame(sample_header(), {});
  frame.data()[4] = 99;
  BytesView body;
  try {
    decode_frame(frame.view(), body);
    FAIL();
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), ErrorCode::wire_bad_version);
  }
}

TEST(Frame, CorruptHeaderCrcDetected) {
  Buffer frame = encode_frame(sample_header(), {});
  frame.data()[10] ^= 0x01;  // flip a bit inside the request id
  BytesView body;
  try {
    decode_frame(frame.view(), body);
    FAIL();
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), ErrorCode::wire_bad_checksum);
  }
}

TEST(Frame, UnknownTypeRejected) {
  Buffer frame = encode_frame(sample_header(), {});
  frame.data()[5] = 77;
  BytesView body;
  EXPECT_THROW(decode_frame(frame.view(), body), WireError);
}

// frame_size() is what the shm bearer charges the ledger for a frame it
// never builds: it must be the size encode_frame() builds, under every
// combination of flags and extensions.
TEST(Frame, SizeMatchesTheEncodedFrameForEveryFlagCombination) {
  for (std::uint16_t flags = 0; flags < 16; ++flags) {
    MessageHeader header = sample_header();
    header.flags = flags;
    for (const std::size_t body_size : {0u, 1u, 300u}) {
      SCOPED_TRACE("flags " + std::to_string(flags) + ", body " +
                   std::to_string(body_size));
      const Bytes body(body_size, 0x5a);
      EXPECT_EQ(frame_size(header, body_size),
                encode_frame(header, body).size());
    }
  }
}

TEST(Frame, ErrorBodyRoundTrip) {
  Buffer body = encode_error_body(503, "object not found");
  std::uint32_t code = 0;
  std::string message;
  decode_error_body(body.view(), code, message);
  EXPECT_EQ(code, 503u);
  EXPECT_EQ(message, "object not found");
}

// ---- randomized property sweep ------------------------------------------------

class WireFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzRoundTrip, RandomValuesSurviveRoundTrip) {
  Xoshiro256 rng(GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<std::int32_t> ints(rng.next_below(200));
    for (auto& v : ints) v = static_cast<std::int32_t>(rng.next());
    roundtrip_equal(ints);

    std::string text(rng.next_below(100), '\0');
    for (auto& c : text) c = static_cast<char>(rng.next_below(256));
    roundtrip_equal(text);

    std::map<std::uint32_t, double> table;
    for (std::uint64_t i = 0; i < rng.next_below(20); ++i) {
      table[static_cast<std::uint32_t>(rng.next())] = rng.next_double();
    }
    roundtrip_equal(table);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ohpx::wire
