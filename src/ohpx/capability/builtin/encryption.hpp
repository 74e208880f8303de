// Encryption capability (paper Figure 2's "C1, a capability that encrypts
// the data transferred between the client and the server").
//
// process() XORs a keystream derived from (key, per-call nonce) over the
// payload in place; unprocess() applies the same stream, restoring the
// plaintext.  Both sides derive the nonce from the call context so no
// extra bytes travel on the wire.  In a chain the pass is the chain's: it
// masks with keystream() in its sweep (crypto/sweep.hpp), next to an
// adjacent authentication's MAC when there is one.
#pragma once

#include "ohpx/capability/capability.hpp"
#include "ohpx/crypto/key.hpp"
#include "ohpx/crypto/stream_cipher.hpp"

namespace ohpx::cap {

class EncryptionCapability final : public Capability {
 public:
  explicit EncryptionCapability(crypto::Key128 key, Scope scope = Scope::always);

  std::string_view kind() const noexcept override { return "encryption"; }
  void process(wire::Buffer& payload, const CallContext& call) override;
  void unprocess(wire::Buffer& payload, const CallContext& call) override;
  CapabilityDescriptor descriptor() const override;

  /// The call's keystream, the same for process() and unprocess().
  crypto::StreamCipher keystream(const CallContext& call) const noexcept {
    return crypto::StreamCipher(key_, call.nonce());
  }

  static CapabilityPtr from_descriptor(const CapabilityDescriptor& descriptor);

 private:
  crypto::Key128 key_;
};

}  // namespace ohpx::cap
