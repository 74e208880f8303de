// Glue protocol object (paper §4.1): "a special kind of protocol object
// that can be used to hold capab-objects in a specific order...  A glue
// object does not contain any communication mechanism but depends on a real
// protocol object to do the actual communication."
//
// Client-side flow (paper Figure 2): the caller's payload sealed through
// the chain (admission + process()) into a pooled buffer of glue's own —
// the caller's buffer is only read — then the clear-text glue id in front,
// mark the header, delegate to the real proto-object.  Reply flow: if the server marked the reply as
// glue-processed, unprocess it through the chain back-to-front.  invoke()
// and invoke_async() share both halves; an async reply is unprocessed on
// the thread that settles the delegate's future.
#pragma once

#include <cstdint>

#include "ohpx/capability/chain.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/protocol/protocol.hpp"

namespace ohpx::proto {

class GlueProtocol final : public Protocol {
 public:
  GlueProtocol(std::uint32_t glue_id, cap::CapabilityChain chain,
               ProtocolPtr delegate);

  std::string_view name() const noexcept override { return "glue"; }

  /// AND of the chain's applicability and the delegate's (paper §4.3:
  /// "the applicability of a glue protocol is the logical AND of all its
  /// constituent capabilities").
  bool applicable(const CallTarget& target) const override;

  ReplyMessage invoke(const wire::MessageHeader& header,
                      const wire::Buffer& payload,
                      const CallTarget& target, CostLedger& ledger) override;

  /// The delegate's invoke_async() with the chain wrapped around it: a
  /// client-side refusal throws here, before anything is sent, and the
  /// reply stage (a map on the delegate's future) checks the reply, as
  /// the sync delegate does, before it unprocesses.
  Future<ReplyMessage> invoke_async(const wire::MessageHeader& header,
                                    const wire::Buffer& payload,
                                    const CallTarget& target) override;

  std::string describe() const override;

  const cap::CapabilityChain& chain() const noexcept { return chain_; }
  std::uint32_t glue_id() const noexcept { return glue_id_; }
  Protocol& delegate() noexcept { return *delegate_; }

 private:
  /// Request half: `sealed` gets `payload` through the chain (admission
  /// and process()) behind the clear-text glue id, and `header` the glue
  /// flag.  Returns the call context the reply half unprocesses with.
  cap::CallContext process_request(wire::MessageHeader& header,
                                   const wire::Buffer& payload,
                                   wire::Buffer& sealed,
                                   const CallTarget& target);

  /// Reply half: unprocesses a reply the server marked glue-processed.
  void process_reply(ReplyMessage& reply, cap::CallContext call);

  std::uint32_t glue_id_;
  cap::CapabilityChain chain_;
  ProtocolPtr delegate_;
};

}  // namespace ohpx::proto
