// Relay protocol: gateway traversal for clients that cannot (or may not)
// reach a server endpoint directly.
//
// A gateway context hosts a RelayForwarder — an endpoint whose request
// bodies are envelopes: `string target-endpoint ‖ request body`.  The
// forwarder reads the name and dispatches the rest to the target with the
// caller's header, so the target's reply is the caller's.  The
// client-side RelayProtocol wraps every request body in such an envelope
// and dispatches it to the gateway; its proto-data is simply the gateway
// endpoint name.  Nothing is framed: relay rides transport::dispatch like
// every in-process bearer.
//
// This is a worked example of the paper's "custom protocols via a
// standard interface" (§3.2) that is useful in its own right: references
// can force traffic through an auditing/filtering chokepoint by listing
// only the relay protocol in their table.
#pragma once

#include <atomic>
#include <string>

#include "ohpx/protocol/protocol.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx::proto {

/// Gateway side: binds `gateway_endpoint` into the endpoint registry and
/// forwards enveloped requests.  Unbinds on destruction.
class RelayForwarder {
 public:
  explicit RelayForwarder(std::string gateway_endpoint);
  ~RelayForwarder();

  RelayForwarder(const RelayForwarder&) = delete;
  RelayForwarder& operator=(const RelayForwarder&) = delete;

  const std::string& endpoint() const noexcept { return endpoint_; }
  std::uint64_t forwarded() const noexcept;

 private:
  wire::ReplyEnvelope handle(const wire::MessageHeader& header,
                             BytesView envelope);

  std::string endpoint_;
  std::atomic<std::uint64_t> forwarded_{0};
};

/// Client side: carries requests through the gateway named in proto-data.
class RelayProtocol final : public Protocol {
 public:
  explicit RelayProtocol(std::string gateway_endpoint);

  std::string_view name() const noexcept override { return "relay"; }

  /// Applicable when the gateway is bound and the target has an endpoint
  /// for the gateway to forward to.
  bool applicable(const CallTarget& target) const override;

  ReplyMessage invoke(const wire::MessageHeader& header,
                      const wire::Buffer& payload,
                      const CallTarget& target, CostLedger& ledger) override;

  std::string describe() const override;

  /// Builds the proto-data blob for an OR entry.
  static Bytes make_proto_data(const std::string& gateway_endpoint);

 private:
  std::string gateway_endpoint_;
};

}  // namespace ohpx::proto
