// ABL-WIRE: marshalling throughput of the XDR-like wire layer — the floor
// under every protocol's real-time cost, and the substance behind the
// paper's "no extra data copying" design point (§3.2).
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include <map>
#include <string>

#include "ohpx/wire/message.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::bench {
namespace {

void EncodeIntArray(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> values(n, 42);
  for (auto _ : state) {
    wire::Buffer buf = wire::encode_value(values);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(n));
}

void DecodeIntArray(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> values(n, 42);
  const wire::Buffer buf = wire::encode_value(values);
  for (auto _ : state) {
    auto decoded = wire::decode_value<std::vector<std::int32_t>>(buf.view());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(n));
}

void EncodeString(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text(n, 'x');
  for (auto _ : state) {
    wire::Buffer buf = wire::encode_value(text);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void RoundTripStringMap(benchmark::State& state) {
  std::map<std::string, std::string> params;
  for (int i = 0; i < 32; ++i) {
    params["key-" + std::to_string(i)] = "value-" + std::to_string(i * i);
  }
  for (auto _ : state) {
    wire::Buffer buf = wire::encode_value(params);
    auto decoded =
        wire::decode_value<std::map<std::string, std::string>>(buf.view());
    benchmark::DoNotOptimize(decoded);
  }
}

void FrameEncodeDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bytes body(n, 0xab);
  wire::MessageHeader header;
  header.request_id = 123;
  header.object_id = 456;
  header.method_or_code = 7;
  for (auto _ : state) {
    wire::Buffer frame = wire::encode_frame(header, body);
    BytesView parsed_body;
    auto parsed = wire::decode_frame(frame.view(), parsed_body);
    benchmark::DoNotOptimize(parsed);
    benchmark::DoNotOptimize(parsed_body);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Powers of 4 so 65,536 elements (256 KiB, the cap_bulk payload) is an arm.
BENCHMARK(EncodeIntArray)->RangeMultiplier(4)->Range(16, 1 << 20);
BENCHMARK(DecodeIntArray)->RangeMultiplier(4)->Range(16, 1 << 20);
BENCHMARK(EncodeString)->Range(64, 1 << 20);
BENCHMARK(RoundTripStringMap);
BENCHMARK(FrameEncodeDecode)->Range(64, 1 << 20);
BENCHMARK(Memcpy)->Arg(1 << 18);

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::bench_main(argc, argv); }
