// Lease capability: time-limited access.  The paper's §1 motivates it with
// clients "given access to the weather data only for the time they have
// paid for".  Admission fails with capability_expired once the lease runs
// out; the payload passes through untouched.
//
// When a lease is serialized into a descriptor the *remaining* time is
// recorded, so a lease handed to another process keeps ticking from the
// moment of transfer.
#pragma once

#include <chrono>
#include <cstdint>

#include "ohpx/capability/capability.hpp"

namespace ohpx::cap {

class LeaseCapability final : public Capability {
 public:
  /// The longest lease, a year: a longer TTL is clamped to it, so the
  /// nanosecond expiry cannot overflow.
  static constexpr std::uint64_t kLongestMs = 365ull * 24 * 3600 * 1000;

  /// A lease of `ttl_ms` from now, clamped to kLongestMs.  Takes a peer's
  /// u64 as it arrives, from a descriptor or a directory snapshot.
  explicit LeaseCapability(std::uint64_t ttl_ms, Scope scope = Scope::always);

  /// A lease of `ttl` from now; a negative one is already expired.
  explicit LeaseCapability(std::chrono::milliseconds ttl,
                           Scope scope = Scope::always);

  std::string_view kind() const noexcept override { return "lease"; }
  void admit(const CallContext& call) override;
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  bool expired() const noexcept;
  std::chrono::milliseconds remaining() const noexcept;

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);

 private:
  // Expiry on the resilience clock (nanoseconds on the installed source),
  // so ManualClock-driven tests can expire leases deterministically.
  std::int64_t expiry_ns_;
};

}  // namespace ohpx::cap
