#include "ohpx/protocol/relay.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/wire/buffer_pool.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::proto {

RelayForwarder::RelayForwarder(std::string gateway_endpoint)
    : endpoint_(std::move(gateway_endpoint)) {
  transport::EndpointRegistry::instance().bind(
      endpoint_, [this](const wire::MessageHeader& header, BytesView envelope) {
        return handle(header, envelope);
      });
}

RelayForwarder::~RelayForwarder() {
  transport::EndpointRegistry::instance().unbind(endpoint_);
}

std::uint64_t RelayForwarder::forwarded() const noexcept {
  return forwarded_.load(std::memory_order_relaxed);
}

wire::ReplyEnvelope RelayForwarder::handle(const wire::MessageHeader& header,
                                           BytesView envelope) {
  std::string target;
  BytesView body;
  {
    trace::Span decode_span(trace::SpanKind::decode, "wire.decode");
    wire::Decoder dec(envelope);
    target = dec.get_string();
    body = dec.get_raw(dec.remaining());
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  CostLedger ledger;  // the gateway's own cost is not the caller's concern
  return transport::dispatch(
      transport::EndpointRegistry::instance().find(target), target, header,
      body, ledger);
}

RelayProtocol::RelayProtocol(std::string gateway_endpoint)
    : gateway_endpoint_(std::move(gateway_endpoint)) {
  if (gateway_endpoint_.empty()) {
    throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                        "relay protocol needs a gateway endpoint");
  }
}

bool RelayProtocol::applicable(const CallTarget& target) const {
  return !target.address.endpoint.empty() &&
         transport::EndpointRegistry::instance().find(gateway_endpoint_) !=
             nullptr;
}

ReplyMessage RelayProtocol::invoke(const wire::MessageHeader& header,
                                   const wire::Buffer& payload,
                                   const CallTarget& target,
                                   CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.relay");
  // One pooled envelope: the target's name, then the request body.
  auto& pool = wire::BufferPool::local();
  wire::Buffer envelope =
      pool.acquire(4 + target.address.endpoint.size() + payload.size());
  {
    ScopedRealTime timer(ledger);
    trace::Span encode_span(trace::SpanKind::encode, "wire.encode");
    encode_span.annotate_u64("bytes", payload.size());
    wire::Encoder enc(envelope);
    enc.put_string(target.address.endpoint);
    enc.put_raw(payload.view());
  }
  ReplyMessage reply;
  {
    // The transport span covers the gateway hop and the server
    // turnaround; the server's own spans nest inside it time-wise but
    // parent under the client call via the header's trace context.
    trace::Span transport_span(trace::SpanKind::transport, "transport");
    reply = transport::dispatch(
        transport::EndpointRegistry::instance().find(gateway_endpoint_),
        gateway_endpoint_, header, envelope.view(), ledger);
  }
  pool.release(std::move(envelope));
  check_reply(reply.header, header.request_id);
  return reply;
}

std::string RelayProtocol::describe() const {
  return "relay[" + gateway_endpoint_ + "]";
}

Bytes RelayProtocol::make_proto_data(const std::string& gateway_endpoint) {
  return bytes_of(gateway_endpoint);
}

}  // namespace ohpx::proto
