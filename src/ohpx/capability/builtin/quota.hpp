// Quota capability: caps the total number of requests a reference may
// issue.  This is the paper's "timeout capability that lets the client make
// only a certain maximum number of requests" (Figure 2's C2) — the paper
// calls it *timeout*, but its semantics are a call quota, so this repo
// names it quota and the benchmark labels keep the paper's word.
//
// Each side holds its own copy of the capability (paper §4.2: "GC has its
// own copies of the capabilities") and counts its own view of the traffic:
// the client's copy counts requests it sends, the server's copy counts
// requests it admits.  The counts agree because every admitted request
// passes both copies exactly once.
#pragma once

#include <atomic>
#include <cstdint>

#include "ohpx/capability/capability.hpp"

namespace ohpx::cap {

class QuotaCapability final : public Capability {
 public:
  explicit QuotaCapability(std::uint64_t max_calls, Scope scope = Scope::always);

  std::string_view kind() const noexcept override { return "quota"; }
  void admit(const CallContext& call) override;
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  std::uint64_t remaining() const noexcept;
  std::uint64_t used() const noexcept;

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);

 private:
  std::uint64_t max_calls_;
  std::atomic<std::uint64_t> used_{0};
};

}  // namespace ohpx::cap
