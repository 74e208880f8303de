// Real-socket TCP protocol: loopback TCP to the server context's listener.
// Used by integration tests and examples that want actual kernel sockets in
// the path; benchmarks prefer the deterministic nexus-sim protocol.
//
// One bearer: every call goes through the shared epoll event loop
// (transport/reactor.hpp) — one multiplexed connection per destination,
// correlation-id demux, sendmsg batching, a bounded inflight window
// surfacing ErrorCode::backpressure, and a real invoke_async() whose
// future settles off the event loop.  The synchronous invoke() is a
// bridge: submit + wait on the future.  It never resends: a stale or dead
// connection fails the attempt, and CallCore's counted retry is the only
// retrier above it, so sync and async calls fail the same way here.
#pragma once

#include "ohpx/protocol/protocol.hpp"

namespace ohpx::proto {

class TcpProtocol final : public Protocol {
 public:
  std::string_view name() const noexcept override { return "tcp"; }

  /// Applicable whenever the server context advertises a TCP listener.
  bool applicable(const CallTarget& target) const override;

  ReplyMessage invoke(const wire::MessageHeader& header, wire::Buffer& payload,
                      const CallTarget& target, CostLedger& ledger) override;

  bool supports_async() const noexcept override { return true; }

  Future<ReplyMessage> invoke_async(const wire::MessageHeader& header,
                                    wire::Buffer& payload,
                                    const CallTarget& target) override;
};

}  // namespace ohpx::proto
