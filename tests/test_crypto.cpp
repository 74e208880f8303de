// Unit tests for the crypto substrate: key material, SipHash-2-4 (against
// the reference test vectors), MAC tagging, and the stream cipher.
#include <gtest/gtest.h>

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/crypto/key.hpp"
#include "ohpx/crypto/mac.hpp"
#include "ohpx/crypto/stream_cipher.hpp"

namespace ohpx::crypto {
namespace {

// ---- keys --------------------------------------------------------------------

TEST(Key, HexRoundTrip) {
  const Key128 key = Key128::from_seed(12345);
  const Key128 back = Key128::from_hex(key.to_hex());
  EXPECT_EQ(key, back);
}

TEST(Key, HexValidation) {
  EXPECT_THROW(Key128::from_hex("abcd"), WireError);        // too short
  EXPECT_THROW(Key128::from_hex(std::string(32, 'z')), WireError);
  EXPECT_NO_THROW(Key128::from_hex(std::string(32, '0')));
}

TEST(Key, SeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(Key128::from_seed(1), Key128::from_seed(1));
  EXPECT_NE(Key128::from_seed(1), Key128::from_seed(2));
}

TEST(Key, PassphraseDerivation) {
  EXPECT_EQ(Key128::from_passphrase("secret"), Key128::from_passphrase("secret"));
  EXPECT_NE(Key128::from_passphrase("secret"), Key128::from_passphrase("Secret"));
}

TEST(Key, HalvesAreLittleEndian) {
  Key128 key;
  for (int i = 0; i < 16; ++i) key.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(key.lo(), 0x0706050403020100ull);
  EXPECT_EQ(key.hi(), 0x0f0e0d0c0b0a0908ull);
}

// ---- SipHash-2-4 reference vectors ---------------------------------------------
//
// From the SipHash reference implementation (Aumasson & Bernstein): key =
// 000102...0f, message = first n bytes of 00 01 02 ..., expected 64-bit
// outputs (little-endian in the reference table, reproduced here as u64).

Key128 reference_key() {
  Key128 key;
  for (int i = 0; i < 16; ++i) key.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  return key;
}

TEST(SipHash, ReferenceVectors) {
  // vectors_sip64[n] for n = 0..7 from the reference implementation.
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ull, 0x74f839c593dc67fdull, 0x0d6c8009d9a94f5aull,
      0x85676696d7fb7e2dull, 0xcf2794e0277187b7ull, 0x18765564cd99a68dull,
      0xcbc9466e58fee3ceull, 0xab0200f58b01d137ull,
  };
  const Key128 key = reference_key();
  Bytes message;
  for (std::size_t n = 0; n < std::size(expected); ++n) {
    EXPECT_EQ(siphash24(key, message), expected[n]) << "length " << n;
    message.push_back(static_cast<std::uint8_t>(n));
  }
}

TEST(SipHash, LongerMessagesStable) {
  const Key128 key = reference_key();
  Bytes message(1000);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i);
  }
  const std::uint64_t h1 = siphash24(key, message);
  const std::uint64_t h2 = siphash24(key, message);
  EXPECT_EQ(h1, h2);
  message[500] ^= 1;
  EXPECT_NE(siphash24(key, message), h1);
}

// ---- pinned wire bytes -------------------------------------------------------
//
// The reference vectors above stop at 7 bytes and the cipher tests only check
// involution, so a kernel rewrite that changed the tag or the keystream would
// pass them.  These values were captured from the byte-at-a-time kernels and
// pin the bytes a peer sees.

Bytes seeded_bytes(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// FNV-1a 64: a digest independent of the SipHash under test.
std::uint64_t fnv1a(BytesView data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(SipHash, GoldenSeededMessages) {
  const Key128 key = Key128::from_seed(0x5eed);
  EXPECT_EQ(siphash24(key, seeded_bytes(1, 1024)), 0x913ee24169c42f55ull);
  EXPECT_EQ(siphash24(key, seeded_bytes(2, 256 * 1024 + 3)),
            0x10682eb94bc6eee6ull);
  EXPECT_EQ(to_hex(mac_tag(key, seeded_bytes(1, 1024))), "552fc46941e23e91");
}

// SipHash of a message fed to a SipHasher in two update() calls, split
// at `split`.
std::uint64_t hash_in_two(const Key128& key, BytesView message,
                          std::size_t split) {
  SipHasher hasher(key);
  hasher.update(message.first(split));
  hasher.update(message.subspan(split));
  return hasher.finish();
}

TEST(SipHash, SplitUpdatesMatchOneShotAtEverySplit) {
  const Key128 key = Key128::from_seed(0x5eed);
  const Bytes message = seeded_bytes(4, 1024 + 5);
  // Every length up to three words, split at every offset: covers every
  // residue of the head and the tail, and the empty head and tail.
  for (std::size_t n = 0; n <= 24; ++n) {
    const BytesView whole(message.data(), n);
    const std::uint64_t expected = siphash24(key, whole);
    for (std::size_t split = 0; split <= n; ++split) {
      EXPECT_EQ(hash_in_two(key, whole, split), expected)
          << "length " << n << " split at " << split;
    }
  }
  // A long payload with a short binding, the authentication capability's
  // shape, and the reverse.
  const std::uint64_t expected = siphash24(key, message);
  for (std::size_t cut = 0; cut <= 24; ++cut) {
    EXPECT_EQ(hash_in_two(key, message, message.size() - cut), expected)
        << "tail of " << cut;
    EXPECT_EQ(hash_in_two(key, message, cut), expected) << "head of " << cut;
  }
  // Whole words absorbed between byte-wise updates, as a sweep does.
  SipHasher hasher(key);
  hasher.update(BytesView(message).first(3));
  hasher.update(BytesView(message).subspan(3, 5));
  ASSERT_TRUE(hasher.aligned());
  std::size_t at = 8;
  for (; at + 8 <= 1000; at += 8) {
    hasher.absorb_word(load_le<std::uint64_t>(message.data() + at));
  }
  hasher.update(BytesView(message).subspan(at));
  EXPECT_EQ(hasher.finish(), expected);
}

// ---- MAC tags --------------------------------------------------------------------

MacTag tag_of(const Key128& key, BytesView data) {
  SipHasher hasher(key);
  hasher.update(data);
  return hasher.finish_tag();
}

TEST(Mac, TagIsTheLittleEndianHash) {
  const Key128 key = Key128::from_seed(9);
  const Bytes data = bytes_of("authenticated payload");
  const Bytes tag = mac_tag(key, data);
  ASSERT_EQ(tag.size(), kMacTagSize);
  EXPECT_EQ(load_le<std::uint64_t>(tag.data()), siphash24(key, data));
  EXPECT_TRUE(constant_time_equal(tag_of(key, data), tag));
}

TEST(Mac, TamperedPayloadFails) {
  const Key128 key = Key128::from_seed(9);
  Bytes data = bytes_of("authenticated payload");
  const MacTag tag = tag_of(key, data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_FALSE(constant_time_equal(tag_of(key, data), tag)) << "byte " << i;
    data[i] ^= 1;
  }
}

TEST(Mac, WrongKeyFails) {
  const Bytes data = bytes_of("payload");
  EXPECT_FALSE(constant_time_equal(tag_of(Key128::from_seed(2), data),
                                   tag_of(Key128::from_seed(1), data)));
}

TEST(Mac, EmptyMessageHasValidTag) {
  const Key128 key = Key128::from_seed(3);
  const Bytes tag = mac_tag(key, {});
  ASSERT_EQ(tag.size(), kMacTagSize);
  EXPECT_TRUE(constant_time_equal(SipHasher(key).finish_tag(), tag));
}

TEST(Mac, SplitTagCoversTheConcatenation) {
  const Key128 key = Key128::from_seed(9);
  const Bytes payload = seeded_bytes(5, 300);
  const Bytes binding = bytes_of("request 7 / object 3 / principal");
  Bytes joined = payload;
  joined.insert(joined.end(), binding.begin(), binding.end());

  SipHasher hasher(key);
  hasher.update(payload);
  hasher.update(binding);
  const MacTag tag = hasher.finish_tag();
  EXPECT_EQ(Bytes(tag.begin(), tag.end()), mac_tag(key, joined));
  // The tag covers the concatenation, wherever it is split.
  EXPECT_EQ(hash_in_two(key, joined, 10), load_le<std::uint64_t>(tag.data()));
  Bytes tampered = joined;
  tampered.back() ^= 1;
  EXPECT_FALSE(constant_time_equal(tag_of(key, tampered), tag));
}

// ---- stream cipher ------------------------------------------------------------------

// One (key, nonce) keystream over a whole message, as the encryption
// capability masks a payload.
void stream_crypt(const Key128& key, std::uint64_t nonce,
                  std::span<std::uint8_t> data) {
  StreamCipher(key, nonce).apply(data);
}

TEST(StreamCipherTest, RoundTripRestoresPlaintext) {
  const Key128 key = Key128::from_seed(77);
  Bytes data = bytes_of("the plaintext message, somewhat longer than a block");
  const Bytes original = data;
  stream_crypt(key, 5, data);
  EXPECT_NE(data, original);  // actually scrambled
  stream_crypt(key, 5, data);
  EXPECT_EQ(data, original);
}

TEST(StreamCipherTest, DifferentNonceDifferentKeystream) {
  const Key128 key = Key128::from_seed(77);
  Bytes a = bytes_of("same plaintext bytes!");
  Bytes b = a;
  stream_crypt(key, 1, a);
  stream_crypt(key, 2, b);
  EXPECT_NE(a, b);
}

TEST(StreamCipherTest, DifferentKeyDifferentKeystream) {
  Bytes a = bytes_of("same plaintext bytes!");
  Bytes b = a;
  stream_crypt(Key128::from_seed(1), 9, a);
  stream_crypt(Key128::from_seed(2), 9, b);
  EXPECT_NE(a, b);
}

TEST(StreamCipherTest, EmptyAndTinyPayloads) {
  const Key128 key = Key128::from_seed(4);
  Bytes empty;
  stream_crypt(key, 0, empty);
  EXPECT_TRUE(empty.empty());

  Bytes one = {0x5a};
  const Bytes orig = one;
  stream_crypt(key, 0, one);
  stream_crypt(key, 0, one);
  EXPECT_EQ(one, orig);
}

TEST(StreamCipherTest, GoldenKeystream) {
  const Key128 key = Key128::from_seed(0xc1f3);
  constexpr std::uint64_t kNonce = 0x0123456789abcdefull;
  Bytes zeros(64, 0);
  stream_crypt(key, kNonce, zeros);
  EXPECT_EQ(to_hex(zeros),
            "196c62036b12d512686c849ebbec126d007bb3054a9c6d3d513bb934db3fb062"
            "a5ffc68a5eed272c35e160118e1097ad9f6a62d5491ad71d1806663d0afdfab8");

  // 4099 = 512 words and a 3-byte tail.
  Bytes data = seeded_bytes(3, 4099);
  stream_crypt(key, kNonce, data);
  EXPECT_EQ(fnv1a(data), 0x7f591052939df6cbull);
}

TEST(StreamCipherTest, NonBlockSizesRoundTrip) {
  const Key128 key = Key128::from_seed(4);
  for (std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 1023u}) {
    Bytes data(n, 0xcc);
    const Bytes orig = data;
    stream_crypt(key, n, data);
    stream_crypt(key, n, data);
    EXPECT_EQ(data, orig) << "size " << n;
  }
}

TEST(StreamCipherTest, SplitAppliesMatchOneCallAtEverySplit) {
  const Key128 key = Key128::from_seed(4);
  const Bytes message = seeded_bytes(6, 1029);
  // Every length up to three words, split at every offset.
  for (std::size_t n = 0; n <= 24; ++n) {
    Bytes expected(message.begin(), message.begin() + static_cast<std::ptrdiff_t>(n));
    stream_crypt(key, n, expected);
    for (std::size_t split = 0; split <= n; ++split) {
      Bytes data(message.begin(), message.begin() + static_cast<std::ptrdiff_t>(n));
      StreamCipher cipher(key, n);
      cipher.apply(std::span(data).first(split));
      cipher.apply(std::span(data).subspan(split));
      EXPECT_EQ(data, expected) << "length " << n << " split at " << split;
    }
  }
  // Odd pieces, then whole keystream words drawn between them, as a sweep
  // does.
  Bytes expected = message;
  stream_crypt(key, 99, expected);
  Bytes data = message;
  StreamCipher cipher(key, 99);
  cipher.apply(std::span(data).first(5));
  cipher.apply(std::span(data).subspan(5, 3));
  ASSERT_TRUE(cipher.aligned());
  std::size_t at = 8;
  for (; at + 8 <= 1000; at += 8) {
    store_le<std::uint64_t>(data.data() + at,
                            load_le<std::uint64_t>(data.data() + at) ^
                                cipher.next_word());
  }
  cipher.apply(std::span(data).subspan(at));
  EXPECT_EQ(data, expected);
}

// ---- parameterized property sweep: cipher is an involution -----------------------

class CipherInvolution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CipherInvolution, RandomPayloadsRoundTrip) {
  Xoshiro256 rng(GetParam());
  const Key128 key = Key128::from_seed(rng.next());
  for (int i = 0; i < 30; ++i) {
    Bytes data(rng.next_below(2048));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const Bytes orig = data;
    const std::uint64_t nonce = rng.next();
    stream_crypt(key, nonce, data);
    stream_crypt(key, nonce, data);
    EXPECT_EQ(data, orig);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CipherInvolution,
                         ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace ohpx::crypto
