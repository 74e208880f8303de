// Fast-path invocation microbenchmark: what the epoch-keyed selection
// cache buys on the cheapest real call the runtime can make (same-machine
// shm ping through a three-entry protocol table, the Figure 3 shape).
//
// Two arms over the identical world:
//   cache off — the paper's literal rule: every call re-resolves the
//               location and re-scans the table (the seed behaviour);
//   cache on  — the memoized selection revalidated against the location
//               epoch and pool generation (the default).
// The arms run in short alternating blocks (off then on, on then off,
// ...), so a slow stretch of a shared host lands on both arms of a block
// instead of on one whole arm.  The reported speedup is the median of
// the per-block ratios (uncached block time over cached block time).
// Reported per arm: sustained calls/sec over all of its blocks plus
// per-call p50/p99 latency sampled with a monotonic clock around each
// invocation, in a second series of alternating blocks.
//
// Hand-rolled main (not google-benchmark): the per-call percentiles and
// the paired on/off speedup need one fixture shared across both arms.
// Flags: --smoke (short run for CI), --json <path> (defaults to
// BENCH_fastpath.json in the working directory).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Arm {
  std::string name;
  double calls_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double seconds = 0.0;           // the unsampled blocks' time
  std::vector<double> samples{};  // per-call ns of the sampled blocks
};

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

// One arm's block: a few untimed calls to settle the caches after the
// switch, then `calls` timed calls; returns the block's seconds, and adds
// them to the arm's.  `sampled` times each call on its own instead and
// records it in the arm's samples.
double run_block(scenario::EchoPointer& gp, bool cache_on, std::size_t calls,
                 Arm& arm, bool sampled) {
  constexpr std::size_t kSettleCalls = 64;
  gp->set_selection_cache(cache_on);
  for (std::size_t i = 0; i < kSettleCalls; ++i) gp->ping();

  auto& registry = metrics::MetricsRegistry::global();
  const std::uint64_t hits0 = registry.counter("rmi.select.cache_hit");
  const std::uint64_t misses0 = registry.counter("rmi.select.cache_miss");
  const auto block_start = Clock::now();
  if (!sampled) {
    // No per-call clocks: calls/sec measures the pipeline alone rather
    // than the sampling overhead.
    for (std::size_t i = 0; i < calls; ++i) gp->ping();
  } else {
    for (std::size_t i = 0; i < calls; ++i) {
      const auto call_start = Clock::now();
      gp->ping();
      arm.samples.push_back(std::chrono::duration<double, std::nano>(
                                Clock::now() - call_start)
                                .count());
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - block_start).count();
  if (!sampled) arm.seconds += seconds;
  arm.cache_hits += registry.counter("rmi.select.cache_hit") - hits0;
  arm.cache_misses += registry.counter("rmi.select.cache_miss") - misses0;
  return seconds;
}

int run(int argc, char** argv) {
  std::string json_path = consume_json_flag(argc, argv);
  if (json_path.empty()) json_path = "BENCH_fastpath.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t warmup = smoke ? 200 : 5000;
  const std::size_t iterations = smoke ? 2000 : 200000;
  // 5,000 calls a block in the full run: a few milliseconds per arm, so
  // the two arms of a block see the same host.
  const std::size_t blocks = smoke ? 4 : 40;
  const std::size_t block_calls = iterations / blocks;

  // Figure 3 shape: authenticated glue preferred (not applicable here —
  // client and server share the machine), shm the winner, nexus fallback.
  // The uncached arm pays the glue applicability check on every scan.
  runtime::World world;
  const auto lan = world.add_lan("lan-1");
  const auto machine = world.add_machine("bench-box", lan);
  orb::Context& server_ctx = world.create_context(machine);
  orb::Context& client_ctx = world.create_context(machine);

  auto auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_seed(0xbe7c), "fastpath-bench",
      cap::Scope::cross_lan);
  auto ref =
      orb::RefBuilder(server_ctx, std::make_shared<scenario::EchoServant>())
          .glue({auth}, "nexus-tcp")
          .shm()
          .nexus()
          .build();
  scenario::EchoPointer gp(client_ctx, ref);

  // Arm 0 runs with the selection cache off, arm 1 with it on.
  Arm arms[2] = {Arm{"invoke_fastpath/cache_off"},
                 Arm{"invoke_fastpath/cache_on"}};
  for (Arm& arm : arms) arm.samples.reserve(blocks * block_calls);
  for (bool cache_on : {false, true}) {
    gp->set_selection_cache(cache_on);
    for (std::size_t i = 0; i < warmup; ++i) gp->ping();
  }

  // Two series of alternating blocks, the order flipped every block so
  // neither arm always runs second: the first times whole blocks for
  // calls/sec and the per-block ratios, the second times each call for
  // the percentiles.
  std::vector<double> ratios;
  for (bool sampled : {false, true}) {
    for (std::size_t b = 0; b < blocks; ++b) {
      double seconds[2] = {0.0, 0.0};
      for (const std::size_t i : {b % 2, 1 - b % 2}) {
        seconds[i] = run_block(gp, i == 1, block_calls, arms[i], sampled);
      }
      if (!sampled && seconds[1] > 0.0) {
        ratios.push_back(seconds[0] / seconds[1]);
      }
    }
  }
  for (Arm& arm : arms) {
    arm.iterations = blocks * block_calls;
    arm.calls_per_sec = arm.seconds > 0.0
                            ? static_cast<double>(arm.iterations) / arm.seconds
                            : 0.0;
    arm.p50_ns = percentile(arm.samples, 0.50);
    arm.p99_ns = percentile(arm.samples, 0.99);
  }
  const double speedup = percentile(ratios, 0.50);
  const double ratio_q1 = percentile(ratios, 0.25);
  const double ratio_q3 = percentile(ratios, 0.75);

  std::printf(
      "invoke_fastpath: shm ping, table=[glue(auth), shm, nexus-tcp]%s\n",
      smoke ? " (smoke)" : "");
  for (const Arm& arm : arms) {
    std::printf("  %-28s %12.0f calls/s   p50 %8.0f ns   p99 %8.0f ns"
                "   (hits %llu, misses %llu)\n",
                arm.name.c_str(), arm.calls_per_sec, arm.p50_ns, arm.p99_ns,
                static_cast<unsigned long long>(arm.cache_hits),
                static_cast<unsigned long long>(arm.cache_misses));
  }
  std::printf("  speedup (cached / uncached): %.2fx, median of %zu blocks "
              "of %zu calls (quartiles %.2fx-%.2fx)\n",
              speedup, ratios.size(), block_calls, ratio_q1, ratio_q3);

  std::vector<JsonRecord> records;
  for (const Arm& arm : arms) {
    records.push_back(JsonRecord{
        arm.name,
        {{"calls_per_sec", arm.calls_per_sec},
         {"p50_ns", arm.p50_ns},
         {"p99_ns", arm.p99_ns},
         {"iterations", static_cast<double>(arm.iterations)},
         {"cache_hits", static_cast<double>(arm.cache_hits)},
         {"cache_misses", static_cast<double>(arm.cache_misses)}}});
  }
  records.push_back(JsonRecord{"invoke_fastpath/speedup",
                               {{"cached_over_uncached", speedup},
                                {"blocks", static_cast<double>(ratios.size())},
                                {"block_ratio_q1", ratio_q1},
                                {"block_ratio_q3", ratio_q3}}});
  if (!write_json_records(json_path, records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::run(argc, argv); }
