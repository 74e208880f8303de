// "Nexus-based TCP" protocol over the simulated network: the request
// header and the caller's payload go to the server context's dispatch
// (transport::dispatch, as shm does), while the call is charged modeled
// wire time for the link the topology reports between client and server
// machines (ATM, Ethernet, WAN...) and is subject to the seeded fault
// plan.  The wire is a model, so nothing is framed: the time is charged
// from the sizes the frames would have had.  This is the deterministic
// stand-in for the paper's Nexus TCP protocol (DESIGN.md §2).
#pragma once

#include "ohpx/protocol/protocol.hpp"

namespace ohpx::proto {

class NexusSimProtocol final : public Protocol {
 public:
  std::string_view name() const noexcept override { return "nexus-tcp"; }

  /// Applicable for any placement with a reachable endpoint — like real
  /// TCP, it is the universal fallback (lowest preference in the paper's
  /// Figure 4 protocol table).
  bool applicable(const CallTarget& target) const override;

  ReplyMessage invoke(const wire::MessageHeader& header,
                      const wire::Buffer& payload,
                      const CallTarget& target, CostLedger& ledger) override;
};

}  // namespace ohpx::proto
