// Wire helpers shared by the client-side glue proto-object and the
// server-side glue class (which lives in the ORB's server pipeline).
//
// Glue proto-data (stored in an OR protocol entry):
//   u32 glue id ‖ delegate ProtocolEntry ‖ vector<CapabilityDescriptor>
//
// Request payload prefix: after the client chain has processed the payload,
// a u32 glue id is prepended *in the clear* so the server can find its copy
// of the chain (paper Figure 2: protocol class C forwards the request to
// GC, the glue object's class).  Replies carry no prefix; the
// kFlagGlueProcessed header flag says whether the reply body was processed.
#pragma once

#include <cstdint>
#include <vector>

#include "ohpx/capability/capability.hpp"
#include "ohpx/protocol/entry.hpp"

namespace ohpx::proto {

struct GlueProtoData {
  std::uint32_t glue_id = 0;
  ProtocolEntry delegate;
  std::vector<cap::CapabilityDescriptor> capabilities;
};

Bytes encode_glue_proto_data(const GlueProtoData& data);
GlueProtoData decode_glue_proto_data(BytesView raw);

/// Size of the clear-text glue id prefix (u32, big-endian).
inline constexpr std::size_t kGlueIdSize = 4;

/// Prepends the clear-text glue id to a processed request payload, in place.
void prepend_glue_id(wire::Buffer& payload, std::uint32_t glue_id);

/// Splits the glue id off a request payload view, advancing the view past
/// it (no copy); throws WireError if too short.
std::uint32_t strip_glue_id(BytesView& payload);

}  // namespace ohpx::proto
