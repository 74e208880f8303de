#include "ohpx/protocol/relay.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/wire/buffer_pool.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::proto {
namespace {

// Decodes the reply frame, check_reply()s it against the request `header`
// and copies the body into a pooled buffer, giving the frame back to the
// pool: the stub releases the body after decoding, so a relayed call
// recycles its buffers at steady state.
ReplyMessage decode_reply(wire::Buffer reply_frame,
                          const wire::MessageHeader& header,
                          CostLedger& ledger) {
  ScopedRealTime timer(ledger);
  trace::Span decode_span(trace::SpanKind::decode, "wire.decode");
  BytesView body;
  ReplyMessage reply;
  reply.header = wire::decode_frame(reply_frame.view(), body);
  check_reply(reply.header, header.request_id);
  auto& pool = wire::BufferPool::local();
  reply.payload = pool.acquire(body.size());
  reply.payload.append(body);
  pool.release(std::move(reply_frame));
  return reply;
}

}  // namespace

RelayForwarder::RelayForwarder(std::string gateway_endpoint)
    : endpoint_(std::move(gateway_endpoint)) {
  transport::EndpointRegistry::instance().bind(
      endpoint_, [this](const wire::Buffer& envelope) { return handle(envelope); });
}

RelayForwarder::~RelayForwarder() {
  transport::EndpointRegistry::instance().unbind(endpoint_);
}

std::uint64_t RelayForwarder::forwarded() const noexcept {
  return forwarded_.load(std::memory_order_relaxed);
}

wire::Buffer RelayForwarder::handle(const wire::Buffer& envelope) {
  wire::Decoder dec(envelope.view());
  const std::string target = dec.get_string();
  const BytesView inner = dec.get_raw(dec.remaining());

  forwarded_.fetch_add(1, std::memory_order_relaxed);
  CostLedger ledger;  // the gateway's own cost is not the caller's concern
  auto& pool = wire::BufferPool::local();
  wire::Buffer inner_frame = pool.acquire(inner.size());
  inner_frame.append(inner);
  wire::Buffer reply = transport::roundtrip(target, inner_frame, ledger);
  pool.release(std::move(inner_frame));
  return reply;
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
         transport::EndpointRegistry::instance().contains(gateway_endpoint_);
}

ReplyMessage RelayProtocol::invoke(const wire::MessageHeader& header,
                                   const wire::Buffer& payload,
                                   const CallTarget& target,
                                   CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.relay");
  // One pooled envelope: the target's name, then the request frame
  // encoded straight after it.
  auto& pool = wire::BufferPool::local();
  wire::Buffer envelope = pool.acquire(
      4 + target.address.endpoint.size() + wire::kHeaderSize +
      payload.size());
  {
    ScopedRealTime timer(ledger);
    trace::Span encode_span(trace::SpanKind::encode, "wire.encode");
    encode_span.annotate_u64("bytes", payload.size());
    wire::Encoder(envelope).put_string(target.address.endpoint);
    wire::append_frame(envelope, header, payload.view());
  }
  wire::Buffer reply_frame;
  {
    // The transport span covers send + gateway hop + server turnaround;
    // the server's own spans nest inside it time-wise but parent under
    // the client call via the wire context, not this thread.
    trace::Span transport_span(trace::SpanKind::transport, "transport");
    reply_frame = transport::roundtrip(gateway_endpoint_, envelope, ledger);
  }
  pool.release(std::move(envelope));
  return decode_reply(std::move(reply_frame), header, ledger);
}

std::string RelayProtocol::describe() const {
  return "relay[" + gateway_endpoint_ + "]";
}

Bytes RelayProtocol::make_proto_data(const std::string& gateway_endpoint) {
  return bytes_of(gateway_endpoint);
}

}  // namespace ohpx::proto
