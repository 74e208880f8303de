// Authentication capability (paper §4.3's example: a server that requires
// all clients outside its LAN to authenticate every remote request).
//
// process() appends an 8-byte SipHash-2-4 tag over (payload ‖ call
// binding); unprocess() verifies and strips it, throwing
// CapabilityDenied(capability_auth_failed) on mismatch.  The call binding
// (request id, object id, direction) is mixed into the MAC so a tag cannot
// be replayed on a different call.
//
// In a chain the payload pass is the chain's: it absorbs the payload into
// hasher() in its sweep (crypto/sweep.hpp), next to an adjacent
// encryption's keystream when there is one, and seal()/verify() finish
// the tag over the binding.  process()/unprocess() are the same steps on
// a buffer of their own.
//
// Default scope is cross_lan — exactly the paper's adaptive behaviour:
// after the server migrates onto the client's LAN the capability stops
// applying and the glue protocol carrying it is skipped.
#pragma once

#include "ohpx/capability/capability.hpp"
#include "ohpx/crypto/key.hpp"
#include "ohpx/crypto/mac.hpp"

namespace ohpx::cap {

class AuthenticationCapability final : public Capability {
 public:
  explicit AuthenticationCapability(crypto::Key128 key,
                                    std::string principal = "anonymous",
                                    Scope scope = Scope::cross_lan);

  std::string_view kind() const noexcept override { return "authentication"; }
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  const std::string& principal() const noexcept { return principal_; }

  /// A fresh MAC state to absorb a payload into.
  crypto::SipHasher hasher() const noexcept { return crypto::SipHasher(key_); }

  /// Finishes `hasher`, which absorbed the payload, over the call binding:
  /// the tag process() appends.
  crypto::MacTag seal(crypto::SipHasher& hasher, const CallContext& call) const;

  /// Finishes `hasher` like seal() and throws
  /// CapabilityDenied(capability_auth_failed) unless the result is `tag`
  /// (compared in constant time).
  void verify(crypto::SipHasher& hasher, BytesView tag,
              const CallContext& call) const;

  /// Throws CapabilityDenied(capability_auth_failed) when a sealed
  /// payload of `size` bytes cannot hold a tag.
  static void require_tag(std::size_t size);

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);

 private:
  crypto::Key128 key_;
  std::string principal_;
  Bytes principal_wire_;  // the binding's tail: the principal as a wire string
};

}  // namespace ohpx::cap
