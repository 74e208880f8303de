// Built with NDEBUG the other way round from the libraries it links
// (tests/CMakeLists.txt flips it).  Whether sync::Mutex carries the
// lock-order validator's state is the library's decision, exported by
// ohpx_sync, not the includer's NDEBUG: so the Reactor this file
// constructs, and the FutureState and metric handles it touches, have the
// layout the library's code expects, and calls through them work.
#include <gtest/gtest.h>

#include <chrono>

#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx {
namespace {

// Answers every request frame with a reply frame carrying the same body.
wire::Buffer echo_frame(BytesView frame) {
  BytesView body;
  wire::MessageHeader header = wire::decode_frame(frame, body);
  header.type = wire::MessageType::reply;
  return wire::encode_frame(header, body);
}

wire::MessageHeader request(std::uint64_t request_id) {
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = request_id;
  return header;
}

TEST(NdebugLayout, ReactorCallsAgainstATcpListener) {
  transport::TcpListener listener(0, echo_frame);
  transport::Reactor reactor;

  const transport::RawReply led =
      reactor.exchange("127.0.0.1", listener.port(), request(1),
                       bytes_of("sync"));
  EXPECT_EQ(led.header.request_id, 1u);
  EXPECT_EQ(text_of(led.payload.view()), "sync");

  Future<transport::RawReply> queued = reactor.submit(
      "127.0.0.1", listener.port(), request(2), bytes_of("async"));
  ASSERT_TRUE(queued.wait_for(std::chrono::seconds(10)));
  const transport::RawReply reply = queued.get();
  EXPECT_EQ(reply.header.request_id, 2u);
  EXPECT_EQ(text_of(reply.payload.view()), "async");
}

}  // namespace
}  // namespace ohpx
