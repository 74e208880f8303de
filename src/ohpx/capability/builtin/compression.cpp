#include "ohpx/capability/builtin/compression.hpp"

#include "ohpx/common/error.hpp"

namespace ohpx::cap {
namespace {

compress::CodecId codec_of(const CapabilityDescriptor& descriptor) {
  const std::string name = descriptor.get_or("codec", "lz77");
  if (name == "identity") return compress::CodecId::identity;
  if (name == "rle") return compress::CodecId::rle;
  if (name == "lz77" || name == "lz") return compress::CodecId::lz;
  descriptor.refuse("codec", "identity, rle or lz77");
}

}  // namespace

CompressionCapability::CompressionCapability(compress::CodecId codec, Scope scope)
    : Capability(scope), codec_(compress::make_codec(codec)) {}

void CompressionCapability::process(wire::Buffer& payload,
                                    const CallContext& call) {
  (void)call;
  payload.assign(codec_->compress(payload.view()));
}

void CompressionCapability::unprocess(wire::Buffer& payload,
                                      const CallContext& call) {
  (void)call;
  try {
    payload.assign(codec_->decompress(payload.view()));
  } catch (const WireError& e) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           std::string("compressed payload malformed: ") +
                               e.what());
  }
}

CapabilityDescriptor CompressionCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "compression";
  d.params["codec"] = std::string(codec_->name());
  d.params["scope"] = std::string(to_string(scope()));
  return d;
}

CapabilityPtr CompressionCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<CompressionCapability>(
      codec_of(descriptor), descriptor.scope(Scope::always));
}

}  // namespace ohpx::cap
