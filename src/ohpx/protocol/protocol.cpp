#include "ohpx/protocol/protocol.hpp"

#include "ohpx/common/error.hpp"

namespace ohpx::proto {

// The in-process bearers' async face: the exchange runs inline on the
// calling thread and the returned future is already settled, so a
// continuation mapped onto it runs on the caller too.
Future<ReplyMessage> Protocol::invoke_async(const wire::MessageHeader& header,
                                            const wire::Buffer& payload,
                                            const CallTarget& target) {
  Promise<ReplyMessage> promise;
  try {
    CostLedger ledger;
    ledger.disable_real_timing();
    promise.set_value(invoke(header, payload, target, ledger));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return promise.future();
}

void check_reply(const wire::MessageHeader& header,
                 std::uint64_t expect_request_id) {
  if (header.type == wire::MessageType::request) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "request frame received where reply expected");
  }
  if (header.request_id != expect_request_id) {
    throw ProtocolError(ErrorCode::protocol_unknown,
                        "reply for a different request id");
  }
}

}  // namespace ohpx::proto
