// Ordered capability chain — the processing core of a glue protocol.
//
// Sender: admit() every capability, then process() front-to-back.
// Receiver: unprocess() back-to-front (exactly the paper's "un-process the
// request in the reverse order of the processing done on the client side"),
// then admit checks that belong on the receiving side already ran inside
// unprocess-time admission (see process_inbound).
//
// The chain runs its capabilities as a plan of steps fixed when it is
// built, never per call.  Authentication and encryption are stream steps:
// the chain runs their per-word kernels (a SipHash absorb, a keystream
// mask) through one sweep (crypto/sweep.hpp), and an adjacent
// authentication-encryption pair, in either order, is one step whose
// sweep does both in one pass over the payload.  Every other capability
// is a step of its own.  The bytes each step writes are exactly those of
// its capabilities' process() run one at a time, and what it accepts is
// exactly what their unprocess() accepts, with the same errors.
//
// Each direction has an in-place form over one buffer and an out-of-place
// form that reads a view and writes the result to another buffer: a sweep
// then reads the source and writes the destination in the same pass, with
// no copy ahead of it.
#pragma once

#include <vector>

#include "ohpx/capability/capability.hpp"

namespace ohpx::cap {

class AuthenticationCapability;
class EncryptionCapability;

class CapabilityChain {
 public:
  CapabilityChain() = default;
  explicit CapabilityChain(std::vector<CapabilityPtr> capabilities);

  void add(CapabilityPtr capability);

  std::size_t size() const noexcept { return capabilities_.size(); }
  bool empty() const noexcept { return capabilities_.empty(); }
  const std::vector<CapabilityPtr>& capabilities() const noexcept {
    return capabilities_;
  }

  /// AND of all member applicabilities (paper §4.3).
  bool applicable(const netsim::Placement& placement) const;

  /// Sender side: admission checks then forward-order processing of
  /// `payload` into `out`, replacing what it held.  When `payload` views
  /// all of `out` the chain works on `out` in place; it views no part of
  /// `out` otherwise.
  void process_outbound(BytesView payload, wire::Buffer& out,
                        const CallContext& call);

  /// Sender side, in place.
  void process_outbound(wire::Buffer& payload, const CallContext& call) {
    process_outbound(payload.view(), payload, call);
  }

  /// Receiver side: reverse-order unprocessing of `payload` into `out`,
  /// replacing what it held, then admission checks.  When `payload` views
  /// all of `out` the chain works on `out` in place; it views no part of
  /// `out` otherwise.
  void process_inbound(BytesView payload, wire::Buffer& out,
                       const CallContext& call);

  /// Receiver side, in place.
  void process_inbound(wire::Buffer& payload, const CallContext& call) {
    process_inbound(payload.view(), payload, call);
  }

  /// Descriptors of all members, in chain order (for OR proto-data).
  std::vector<CapabilityDescriptor> descriptors() const;

  /// Server-side descriptors (migration transfer); may contain secrets.
  std::vector<CapabilityDescriptor> server_descriptors() const;

  /// Comma-separated kinds, for logs ("encryption,quota").
  std::string describe() const;

 private:
  /// One step of the plan: a capability run through process()/unprocess(),
  /// or a stream step (a MAC, a keystream, or both in one sweep).
  struct Step {
    Capability* capability = nullptr;
    const AuthenticationCapability* mac = nullptr;
    const EncryptionCapability* cipher = nullptr;
    bool mac_first = false;  // chain order of a pair: MAC, then keystream
  };
  class Pass;

  void plan();
  static void seal(const Step& step, Pass& pass, const CallContext& call);
  static void open(const Step& step, Pass& pass, const CallContext& call);

  std::vector<CapabilityPtr> capabilities_;
  std::vector<Step> steps_;
};

}  // namespace ohpx::cap
