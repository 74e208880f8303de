#include "ohpx/capability/builtin/fault.hpp"

#include <algorithm>
#include <limits>

#include "ohpx/common/error.hpp"
#include "ohpx/common/parse.hpp"
#include "ohpx/common/rng.hpp"

namespace ohpx::cap {
namespace {

bool spec_engaged(const FaultSpec& spec) noexcept {
  return spec.fail_every > 0 || spec.refuse_ratio > 0.0 ||
         !spec.refuse_at.empty();
}

std::string join_ordinals(const std::vector<std::uint64_t>& ordinals) {
  std::string out;
  for (const std::uint64_t ordinal : ordinals) {
    if (!out.empty()) out += ",";
    out += std::to_string(ordinal);
  }
  return out;
}

/// The `refuse_at` parameter: ordinals join_ordinals() wrote, or none.
std::vector<std::uint64_t> read_ordinals(
    const CapabilityDescriptor& descriptor) {
  std::vector<std::uint64_t> out;
  const std::string text = descriptor.get_or("refuse_at", "");
  if (text.empty()) return out;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = text.find(',', begin);
    const auto ordinal =
        parse_number(std::string_view(text).substr(begin, comma - begin), 0);
    if (!ordinal) {
      descriptor.refuse("refuse_at", "comma-separated request ordinals");
    }
    out.push_back(*ordinal);
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

}  // namespace

FaultCapability::FaultCapability(std::uint32_t fail_every)
    : FaultCapability(FaultSpec{.fail_every = fail_every}) {}

FaultCapability::FaultCapability(FaultSpec spec) : spec_(std::move(spec)) {
  if (!spec_engaged(spec_)) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "fault capability needs a refusal schedule");
  }
  if (spec_.refuse_ratio < 0.0 || spec_.refuse_ratio > 1.0) {
    throw CapabilityDenied(ErrorCode::capability_bad_payload,
                           "fault capability ratio must be in [0, 1]");
  }
}

bool FaultCapability::should_refuse(std::uint64_t ordinal) const noexcept {
  if (spec_.fail_every > 0 && ordinal % spec_.fail_every == 0) return true;
  if (spec_.refuse_ratio > 0.0) {
    // Stateless per-ordinal draw: mixing the ordinal into the seed gives a
    // reproducible decision no matter how concurrent admits interleave.
    SplitMix64 mixer(spec_.seed ^ (ordinal * 0x9e3779b97f4a7c15ULL));
    const double u = static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
    if (u < spec_.refuse_ratio) return true;
  }
  return std::find(spec_.refuse_at.begin(), spec_.refuse_at.end(), ordinal) !=
         spec_.refuse_at.end();
}

void FaultCapability::admit(const CallContext& call) {
  if (call.direction != Direction::request) return;
  const std::uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (should_refuse(n)) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    throw CapabilityDenied(ErrorCode::capability_denied,
                           "injected fault (request " + std::to_string(n) +
                               ")");
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
}

void FaultCapability::process(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

void FaultCapability::unprocess(wire::Buffer& payload, const CallContext& call) {
  (void)payload;
  (void)call;
}

std::uint64_t FaultCapability::admitted() const noexcept {
  return admitted_.load(std::memory_order_relaxed);
}

std::uint64_t FaultCapability::refused() const noexcept {
  return refused_.load(std::memory_order_relaxed);
}

CapabilityDescriptor FaultCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "fault";
  d.params["fail_every"] = std::to_string(spec_.fail_every);
  if (spec_.refuse_ratio > 0.0) {
    d.params["ratio"] = std::to_string(spec_.refuse_ratio);
    d.params["seed"] = std::to_string(spec_.seed);
  }
  if (!spec_.refuse_at.empty()) {
    d.params["refuse_at"] = join_ordinals(spec_.refuse_at);
  }
  return d;
}

CapabilityPtr FaultCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  FaultSpec spec;
  spec.fail_every = static_cast<std::uint32_t>(descriptor.integer(
      "fail_every", 0, 0, std::numeric_limits<std::uint32_t>::max()));
  spec.refuse_ratio = descriptor.decimal("ratio", 0.0, 0.0, 1.0);
  spec.seed = descriptor.integer("seed", 1);
  spec.refuse_at = read_ordinals(descriptor);
  return std::make_shared<FaultCapability>(std::move(spec));
}

}  // namespace ohpx::cap
