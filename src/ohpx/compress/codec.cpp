#include "ohpx/compress/codec.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"

namespace ohpx::compress {
namespace {

constexpr std::size_t kHeaderSize = 5;  // u8 id + u32 original size

void write_header(Bytes& out, CodecId id, std::size_t original_size) {
  std::uint8_t header[kHeaderSize] = {static_cast<std::uint8_t>(id)};
  store_be(header + 1, static_cast<std::uint32_t>(original_size));
  out.insert(out.end(), header, header + kHeaderSize);
}

/// Validates the header, checks the id matches, returns the original size
/// and advances `input` past the header.  The size is the peer's claim: a
/// decoder reserves no more than its input can expand to, so a forged
/// header cannot make it allocate gigabytes up front.
std::size_t read_header(BytesView& input, CodecId expected) {
  if (input.size() < kHeaderSize) {
    throw WireError(ErrorCode::wire_truncated, "compressed blob too short");
  }
  if (input[0] != static_cast<std::uint8_t>(expected)) {
    throw WireError(ErrorCode::wire_bad_value, "codec id mismatch");
  }
  const std::size_t size = load_be<std::uint32_t>(input.data() + 1);
  input = input.subspan(kHeaderSize);
  return size;
}

// ---- identity ----------------------------------------------------------

class IdentityCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::identity; }
  std::string_view name() const noexcept override { return "identity"; }

  Bytes compress(BytesView input) const override {
    Bytes out;
    out.reserve(kHeaderSize + input.size());
    write_header(out, CodecId::identity, input.size());
    out.insert(out.end(), input.begin(), input.end());
    return out;
  }

  Bytes decompress(BytesView input) const override {
    const std::size_t original = read_header(input, CodecId::identity);
    if (input.size() != original) {
      throw WireError(ErrorCode::wire_bad_value, "identity size mismatch");
    }
    return Bytes(input.begin(), input.end());
  }
};

// ---- RLE ----------------------------------------------------------------
//
// Token stream:
//   0x00..0x7f : literal run — (token+1) raw bytes follow   (1..128)
//   0x80..0xff : repeat run  — value byte follows, length = (token&0x7f)+3
//                                                            (3..130)

constexpr std::size_t kRleMaxExpansion = 65;  // a 2-byte run: 130 bytes

class RleCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::rle; }
  std::string_view name() const noexcept override { return "rle"; }

  Bytes compress(BytesView input) const override {
    Bytes out;
    out.reserve(kHeaderSize + input.size() + input.size() / 128 + 1);
    write_header(out, CodecId::rle, input.size());

    std::size_t i = 0;
    std::size_t literal_start = 0;
    auto flush_literals = [&](std::size_t end) {
      std::size_t start = literal_start;
      while (start < end) {
        const std::size_t chunk = std::min<std::size_t>(128, end - start);
        out.push_back(static_cast<std::uint8_t>(chunk - 1));
        out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(start),
                   input.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        start += chunk;
      }
    };

    while (i < input.size()) {
      std::size_t run = 1;
      while (i + run < input.size() && input[i + run] == input[i] && run < 130) {
        ++run;
      }
      if (run >= 3) {
        flush_literals(i);
        out.push_back(static_cast<std::uint8_t>(0x80 | (run - 3)));
        out.push_back(input[i]);
        i += run;
        literal_start = i;
      } else {
        i += run;
      }
    }
    flush_literals(input.size());
    return out;
  }

  Bytes decompress(BytesView input) const override {
    const std::size_t original = read_header(input, CodecId::rle);
    Bytes out;
    out.reserve(std::min(original, input.size() * kRleMaxExpansion));
    std::size_t i = 0;
    while (i < input.size()) {
      const std::uint8_t token = input[i++];
      if (token < 0x80) {
        const std::size_t count = static_cast<std::size_t>(token) + 1;
        if (i + count > input.size()) {
          throw WireError(ErrorCode::wire_truncated, "rle literal overruns input");
        }
        if (out.size() + count > original) {
          throw WireError(ErrorCode::wire_overflow, "rle output exceeds declared size");
        }
        out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(i),
                   input.begin() + static_cast<std::ptrdiff_t>(i + count));
        i += count;
      } else {
        if (i >= input.size()) {
          throw WireError(ErrorCode::wire_truncated, "rle run missing value byte");
        }
        const std::size_t count = static_cast<std::size_t>(token & 0x7f) + 3;
        if (out.size() + count > original) {
          throw WireError(ErrorCode::wire_overflow, "rle output exceeds declared size");
        }
        out.insert(out.end(), count, input[i++]);
      }
    }
    if (out.size() != original) {
      throw WireError(ErrorCode::wire_truncated, "rle output shorter than declared");
    }
    return out;
  }
};

// ---- LZ77 ----------------------------------------------------------------
//
// Token stream:
//   0x00..0x7f : literal run — (token+1) raw bytes follow      (1..128)
//   0x80..0xff : match — length = (token&0x7f)+kMinMatch, then u16
//                big-endian back-offset (1..65535)

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 0x7f;  // 131
constexpr std::size_t kLzMaxExpansion = 44;  // a 3-byte match: 131 bytes
constexpr std::size_t kWindow = 65535;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t lz_hash(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

class LzCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::lz; }
  std::string_view name() const noexcept override { return "lz77"; }

  Bytes compress(BytesView input) const override {
    Bytes out;
    out.reserve(kHeaderSize + input.size() + input.size() / 128 + 1);
    write_header(out, CodecId::lz, input.size());

    const std::size_t n = input.size();
    std::vector<std::int64_t> head(kHashSize, -1);
    std::vector<std::int64_t> prev(n, -1);

    std::size_t literal_start = 0;
    auto flush_literals = [&](std::size_t end) {
      std::size_t start = literal_start;
      while (start < end) {
        const std::size_t chunk = std::min<std::size_t>(128, end - start);
        out.push_back(static_cast<std::uint8_t>(chunk - 1));
        out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(start),
                   input.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        start += chunk;
      }
    };

    std::size_t i = 0;
    while (i < n) {
      std::size_t best_len = 0;
      std::size_t best_off = 0;
      if (i + kMinMatch <= n) {
        const std::uint32_t h = lz_hash(input.data() + i);
        std::int64_t candidate = head[h];
        int chain = 32;  // bounded chain walk keeps compression O(n)
        while (candidate >= 0 && chain-- > 0 &&
               i - static_cast<std::size_t>(candidate) <= kWindow) {
          const std::size_t cand = static_cast<std::size_t>(candidate);
          std::size_t len = 0;
          const std::size_t limit = std::min(n - i, kMaxMatch);
          while (len < limit && input[cand + len] == input[i + len]) ++len;
          if (len > best_len) {
            best_len = len;
            best_off = i - cand;
            if (len == limit) break;
          }
          candidate = prev[cand];
        }
      }

      if (best_len >= kMinMatch) {
        flush_literals(i);
        out.push_back(static_cast<std::uint8_t>(0x80 | (best_len - kMinMatch)));
        out.resize(out.size() + 2);
        store_be(out.data() + out.size() - 2,
                 static_cast<std::uint16_t>(best_off));
        // Index every position inside the match so later matches can refer
        // into it.
        const std::size_t end = i + best_len;
        for (; i < end && i + kMinMatch <= n; ++i) {
          const std::uint32_t h = lz_hash(input.data() + i);
          prev[i] = head[h];
          head[h] = static_cast<std::int64_t>(i);
        }
        i = end;
        literal_start = i;
      } else {
        if (i + kMinMatch <= n) {
          const std::uint32_t h = lz_hash(input.data() + i);
          prev[i] = head[h];
          head[h] = static_cast<std::int64_t>(i);
        }
        ++i;
      }
    }
    flush_literals(n);
    return out;
  }

  Bytes decompress(BytesView input) const override {
    const std::size_t original = read_header(input, CodecId::lz);
    Bytes out;
    out.reserve(std::min(original, input.size() * kLzMaxExpansion));
    std::size_t i = 0;
    while (i < input.size()) {
      const std::uint8_t token = input[i++];
      if (token < 0x80) {
        const std::size_t count = static_cast<std::size_t>(token) + 1;
        if (i + count > input.size()) {
          throw WireError(ErrorCode::wire_truncated, "lz literal overruns input");
        }
        if (out.size() + count > original) {
          throw WireError(ErrorCode::wire_overflow, "lz output exceeds declared size");
        }
        out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(i),
                   input.begin() + static_cast<std::ptrdiff_t>(i + count));
        i += count;
      } else {
        if (i + 2 > input.size()) {
          throw WireError(ErrorCode::wire_truncated, "lz match missing offset");
        }
        const std::size_t len = static_cast<std::size_t>(token & 0x7f) + kMinMatch;
        const std::size_t off = load_be<std::uint16_t>(input.data() + i);
        i += 2;
        if (off == 0 || off > out.size()) {
          throw WireError(ErrorCode::wire_bad_value, "lz match offset out of range");
        }
        if (out.size() + len > original) {
          throw WireError(ErrorCode::wire_overflow, "lz output exceeds declared size");
        }
        // Byte-by-byte copy: source and destination may overlap (off < len
        // encodes a repeating pattern).
        std::size_t src = out.size() - off;
        for (std::size_t k = 0; k < len; ++k) out.push_back(out[src + k]);
      }
    }
    if (out.size() != original) {
      throw WireError(ErrorCode::wire_truncated, "lz output shorter than declared");
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Codec> make_identity_codec() { return std::make_unique<IdentityCodec>(); }
std::unique_ptr<Codec> make_rle_codec() { return std::make_unique<RleCodec>(); }
std::unique_ptr<Codec> make_lz_codec() { return std::make_unique<LzCodec>(); }

std::unique_ptr<Codec> make_codec(CodecId id) {
  switch (id) {
    case CodecId::identity: return make_identity_codec();
    case CodecId::rle: return make_rle_codec();
    case CodecId::lz: return make_lz_codec();
  }
  throw WireError(ErrorCode::wire_bad_value, "unknown codec id");
}

CodecId peek_codec(BytesView compressed) {
  if (compressed.empty()) {
    throw WireError(ErrorCode::wire_truncated, "empty compressed blob");
  }
  const std::uint8_t id = compressed[0];
  if (id > static_cast<std::uint8_t>(CodecId::lz)) {
    throw WireError(ErrorCode::wire_bad_value, "unknown codec id");
  }
  return static_cast<CodecId>(id);
}

}  // namespace ohpx::compress
