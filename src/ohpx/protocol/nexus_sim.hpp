// "Nexus-based TCP" protocol over the simulated network: frames travel
// through the in-process endpoint registry while the call is charged
// modeled wire time for the link the topology reports between client and
// server machines (ATM, Ethernet, WAN...).  This is the deterministic
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
