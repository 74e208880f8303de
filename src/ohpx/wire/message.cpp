#include "ohpx/wire/message.hpp"

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/wire/crc.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::wire {

std::size_t frame_size(const MessageHeader& header,
                       std::size_t body_size) noexcept {
  return kHeaderSize + (header.has_trace() ? kTraceExtensionSize : 0) +
         (header.has_deadline() ? kDeadlineExtensionSize : 0) +
         (header.has_correlation() ? kCorrelationExtensionSize : 0) +
         body_size;
}

Buffer encode_frame(const MessageHeader& header, BytesView body) {
  Buffer out;
  encode_frame_into(out, header, body);
  return out;
}

// The 32-byte header is fixed-layout, and it is (de)serialized four times
// per framed call (encode + decode on each side), so it goes through
// direct big-endian loads/stores (common/endian.hpp) on a stack scratch
// block instead of the general field-at-a-time Encoder/Decoder.  Wire
// format is unchanged.
void encode_frame_into(Buffer& out, const MessageHeader& header,
                       BytesView body) {
  std::uint8_t raw[kHeaderSize + kTraceExtensionSize + kDeadlineExtensionSize +
                   kCorrelationExtensionSize];
  store_be<std::uint32_t>(raw, kFrameMagic);
  raw[4] = kWireVersion;
  raw[5] = static_cast<std::uint8_t>(header.type);
  store_be<std::uint16_t>(raw + 6, header.flags);
  store_be<std::uint64_t>(raw + 8, header.request_id);
  store_be<std::uint64_t>(raw + 16, header.object_id);
  store_be<std::uint32_t>(raw + 24, header.method_or_code);
  store_be<std::uint32_t>(raw + 28, crc32(BytesView(raw, kHeaderSize - 4)));
  std::size_t prefix = kHeaderSize;
  if (header.has_trace()) {
    store_be<std::uint64_t>(raw + 32, header.trace_hi);
    store_be<std::uint64_t>(raw + 40, header.trace_lo);
    store_be<std::uint64_t>(raw + 48, header.trace_parent_span);
    raw[56] = header.trace_flags;
    prefix += kTraceExtensionSize;
  }
  if (header.has_deadline()) {
    store_be<std::uint64_t>(raw + prefix,
                            static_cast<std::uint64_t>(header.deadline_ns));
    prefix += kDeadlineExtensionSize;
  }
  if (header.has_correlation()) {
    store_be<std::uint64_t>(raw + prefix, header.correlation_id);
    prefix += kCorrelationExtensionSize;
  }
  out.clear();
  out.reserve(frame_size(header, body.size()));
  out.append(BytesView(raw, prefix));
  out.append(body);
}

MessageHeader decode_frame(BytesView frame, BytesView& body) {
  if (frame.size() < kHeaderSize) {
    throw WireError(ErrorCode::wire_truncated, "frame shorter than header");
  }
  const std::uint8_t* raw = frame.data();
  if (load_be<std::uint32_t>(raw) != kFrameMagic) {
    throw WireError(ErrorCode::wire_bad_magic, "bad frame magic");
  }
  if (raw[4] != kWireVersion) {
    throw WireError(ErrorCode::wire_bad_version, "unsupported wire version");
  }
  const std::uint8_t type = raw[5];
  if (type < 1 || type > 4) {
    throw WireError(ErrorCode::wire_bad_value, "unknown message type");
  }
  MessageHeader header;
  header.type = static_cast<MessageType>(type);
  header.flags = load_be<std::uint16_t>(raw + 6);
  header.request_id = load_be<std::uint64_t>(raw + 8);
  header.object_id = load_be<std::uint64_t>(raw + 16);
  header.method_or_code = load_be<std::uint32_t>(raw + 24);
  const std::uint32_t stored_crc = load_be<std::uint32_t>(raw + 28);
  const std::uint32_t computed_crc =
      crc32(frame.subspan(0, kHeaderSize - 4));
  if (stored_crc != computed_crc) {
    throw WireError(ErrorCode::wire_bad_checksum, "frame header CRC mismatch");
  }
  std::size_t prefix = kHeaderSize;
  if (header.has_trace()) {
    if (frame.size() < kHeaderSize + kTraceExtensionSize) {
      throw WireError(ErrorCode::wire_truncated,
                      "frame shorter than trace extension");
    }
    header.trace_hi = load_be<std::uint64_t>(raw + 32);
    header.trace_lo = load_be<std::uint64_t>(raw + 40);
    header.trace_parent_span = load_be<std::uint64_t>(raw + 48);
    header.trace_flags = raw[56];
    prefix += kTraceExtensionSize;
  }
  if (header.has_deadline()) {
    if (frame.size() < prefix + kDeadlineExtensionSize) {
      throw WireError(ErrorCode::wire_truncated,
                      "frame shorter than deadline extension");
    }
    header.deadline_ns =
        static_cast<std::int64_t>(load_be<std::uint64_t>(raw + prefix));
    prefix += kDeadlineExtensionSize;
  }
  if (header.has_correlation()) {
    if (frame.size() < prefix + kCorrelationExtensionSize) {
      throw WireError(ErrorCode::wire_truncated,
                      "frame shorter than correlation extension");
    }
    header.correlation_id = load_be<std::uint64_t>(raw + prefix);
    prefix += kCorrelationExtensionSize;
  }
  body = frame.subspan(prefix);
  return header;
}

Buffer encode_error_body(std::uint32_t code, const std::string& message) {
  Buffer out;
  Encoder enc(out);
  enc.put_u32(code);
  enc.put_string(message);
  return out;
}

void decode_error_body(BytesView body, std::uint32_t& code,
                       std::string& message) {
  Decoder dec(body);
  code = dec.get_u32();
  message = dec.get_string();
}

}  // namespace ohpx::wire
