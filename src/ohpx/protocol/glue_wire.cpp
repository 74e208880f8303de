#include "ohpx/protocol/glue_wire.hpp"

#include <cstring>

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::proto {

Bytes encode_glue_proto_data(const GlueProtoData& data) {
  wire::Buffer buf;
  wire::Encoder enc(buf);
  enc.put_u32(data.glue_id);
  wire::serialize(enc, data.delegate);
  wire::serialize(enc, data.capabilities);
  return buf.release();
}

GlueProtoData decode_glue_proto_data(BytesView raw) {
  wire::Decoder dec(raw);
  GlueProtoData data;
  data.glue_id = dec.get_u32();
  data.delegate = wire::deserialize<ProtocolEntry>(dec);
  data.capabilities =
      wire::deserialize<std::vector<cap::CapabilityDescriptor>>(dec);
  dec.expect_end();
  return data;
}

void prepend_glue_id(wire::Buffer& payload, std::uint32_t glue_id) {
  // In place: grow by four bytes and slide the body up inside the same
  // allocation (no reallocation when the capacity allows it).
  const std::size_t body_size = payload.size();
  payload.resize(body_size + kGlueIdSize);
  std::uint8_t* p = payload.data();
  std::memmove(p + kGlueIdSize, p, body_size);
  const std::uint32_t wire_id = big_endian(glue_id);
  std::memcpy(p, &wire_id, kGlueIdSize);
}

std::uint32_t strip_glue_id(BytesView& payload) {
  if (payload.size() < kGlueIdSize) {
    throw WireError(ErrorCode::wire_truncated,
                    "glue payload too short for glue id");
  }
  std::uint32_t wire_id = 0;
  std::memcpy(&wire_id, payload.data(), kGlueIdSize);
  payload = payload.subspan(kGlueIdSize);
  return big_endian(wire_id);
}

}  // namespace ohpx::proto
