// Shared-memory protocol: direct in-process hand-off to the server
// context's endpoint.  Applicable only when client and server share a
// machine (paper §4.3: "a shared memory based protocol is applicable only
// for clients and servers running on the same machine").  The request
// header and the caller's payload go straight to the server context's
// dispatch, the handler found when the target was resolved
// (transport::dispatch), and the server's result buffer comes
// back as the reply payload: no frame is encoded, checksummed or copied
// either way.  The only cost is the real CPU time of dispatch — which is
// why, as in the paper's Figure 5, it beats every network protocol by
// over an order of magnitude.
#pragma once

#include "ohpx/protocol/protocol.hpp"

namespace ohpx::proto {

class ShmProtocol final : public Protocol {
 public:
  std::string_view name() const noexcept override { return "shm"; }
  bool applicable(const CallTarget& target) const override;
  ReplyMessage invoke(const wire::MessageHeader& header,
                      const wire::Buffer& payload,
                      const CallTarget& target, CostLedger& ledger) override;
};

}  // namespace ohpx::proto
