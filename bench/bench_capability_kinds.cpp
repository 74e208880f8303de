// ABL-CAP: per-capability byte-processing cost (MB/s) for every built-in
// payload-transforming capability, measured as process()+unprocess() round
// trips on raw buffers — the microscopic view of what the glue protocol
// charges per call — plus the paper's authentication+encryption chain as
// glue runs it: sealed from the caller's bytes into a buffer of its own
// and opened from the frame into another, each in one sweep.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/compression.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/chain.hpp"
#include "ohpx/common/rng.hpp"

namespace ohpx::bench {
namespace {

cap::CallContext make_call() {
  cap::CallContext call;
  call.request_id = 99;
  call.object_id = 1;
  call.method_id = 2;
  return call;
}

Bytes random_payload(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Bytes compressible_payload(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i / 64) % 7);
  }
  return out;
}

void run_roundtrip(benchmark::State& state, cap::Capability& capability,
                   const Bytes& payload) {
  const auto call = make_call();
  for (auto _ : state) {
    wire::Buffer buf{Bytes(payload)};
    capability.process(buf, call);
    capability.unprocess(buf, call);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}

void Cap_Encryption(benchmark::State& state) {
  cap::EncryptionCapability capability(crypto::Key128::from_seed(1));
  run_roundtrip(state, capability,
                random_payload(static_cast<std::size_t>(state.range(0)), 11));
}

void Cap_Authentication(benchmark::State& state) {
  cap::AuthenticationCapability capability(crypto::Key128::from_seed(2),
                                           "bench", cap::Scope::always);
  run_roundtrip(state, capability,
                random_payload(static_cast<std::size_t>(state.range(0)), 22));
}

void Cap_Checksum(benchmark::State& state) {
  cap::ChecksumCapability capability;
  run_roundtrip(state, capability,
                random_payload(static_cast<std::size_t>(state.range(0)), 33));
}

void Cap_CompressRle(benchmark::State& state) {
  cap::CompressionCapability capability(compress::CodecId::rle);
  run_roundtrip(state, capability,
                compressible_payload(static_cast<std::size_t>(state.range(0))));
}

void Cap_CompressLz(benchmark::State& state) {
  cap::CompressionCapability capability(compress::CodecId::lz);
  run_roundtrip(state, capability,
                compressible_payload(static_cast<std::size_t>(state.range(0))));
}

void Cap_CompressLzRandom(benchmark::State& state) {
  cap::CompressionCapability capability(compress::CodecId::lz);
  run_roundtrip(state, capability,
                random_payload(static_cast<std::size_t>(state.range(0)), 44));
}

void Chain_AuthEncryption(benchmark::State& state) {
  const auto key = crypto::Key128::from_seed(5);
  cap::CapabilityChain chain(
      {std::make_shared<cap::AuthenticationCapability>(key, "bench",
                                                       cap::Scope::always),
       std::make_shared<cap::EncryptionCapability>(key)});
  const Bytes payload =
      random_payload(static_cast<std::size_t>(state.range(0)), 55);
  const auto call = make_call();
  wire::Buffer sealed;
  wire::Buffer opened;
  for (auto _ : state) {
    sealed.clear();
    opened.clear();
    chain.process_outbound(BytesView(payload), sealed, call);
    chain.process_inbound(sealed.view(), opened, call);
    benchmark::DoNotOptimize(opened.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}

BENCHMARK(Cap_Encryption)->Range(1 << 10, 1 << 20);
BENCHMARK(Cap_Authentication)->Range(1 << 10, 1 << 20);
BENCHMARK(Cap_Checksum)->Range(1 << 10, 1 << 20);
BENCHMARK(Cap_CompressRle)->Range(1 << 10, 1 << 20);
BENCHMARK(Cap_CompressLz)->Range(1 << 10, 1 << 20);
BENCHMARK(Cap_CompressLzRandom)->Range(1 << 10, 1 << 20);
BENCHMARK(Chain_AuthEncryption)->Arg(1 << 18);
BENCHMARK(Memcpy)->Arg(1 << 18);

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::bench_main(argc, argv); }
