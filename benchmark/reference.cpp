// ohpx_reference — the host-speed kernel of the repo benchmark
// (benchmark/README.md).
//
//   ohpx_reference CPU      # prints {"reference_ns": ...}
//
// Times a fixed, benchmark-owned mix of virtual and std::function calls,
// small vector allocations, integer-to-string conversions and branches on
// one CPU: the median of 9 runs.  run.py runs it right after each
// measured round, on the round's generator CPU, and scales the round's
// times by it, because co-tenants of a shared host slow the round's work
// and this kernel alike.  Its mix resembles an ORB call (indirect calls,
// small allocations, branches), so it slows about as much as the
// in-process workloads do; a copy-and-hash kernel slowed only half as much.
//
// It is a program of its own and does not link the ORB library, so no
// code or state of the code under test reaches it.  Changing it rescales
// every speed metric, so it never changes.
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace {

struct Step {
  virtual ~Step() = default;
  virtual std::uint64_t apply(std::uint64_t x) = 0;
};
struct Affine final : Step {
  std::uint64_t apply(std::uint64_t x) override { return x * 3 + 1; }
};
struct Shift final : Step {
  std::uint64_t apply(std::uint64_t x) override { return x ^ (x >> 3); }
};

std::atomic<std::uint64_t> g_result{0};  // keeps the work observable

void kernel() {
  std::uint64_t h = 0x1234;
  std::vector<std::unique_ptr<Step>> steps;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 != 0) {
      steps.push_back(std::make_unique<Affine>());
    } else {
      steps.push_back(std::make_unique<Shift>());
    }
  }
  const std::function<std::uint64_t(std::uint64_t)> step =
      [&steps](std::uint64_t x) { return steps[x & 63]->apply(x); };
  for (int rep = 0; rep < 20000; ++rep) {
    std::vector<std::int32_t> values(1 + (h & 31));
    for (auto& v : values) v = static_cast<std::int32_t>(h += 0x9e37);
    const std::string name = "m" + std::to_string(h & 0xffff);
    h = step(h) + static_cast<std::uint64_t>(values.back()) + name.size();
    if ((h & 1) != 0) {
      h ^= 0x55;
    } else {
      h += 7;
    }
  }
  g_result.fetch_add(h, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: ohpx_reference CPU\n");
    return 2;
  }
  const int cpu = std::atoi(argv[1]);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(cpu, &cpus);
  if (::sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
    std::fprintf(stderr, "ohpx_reference: cannot pin to cpu %d\n", cpu);
    return 1;
  }
  std::array<double, 9> runs{};
  for (double& run : runs) {
    const auto t0 = std::chrono::steady_clock::now();
    kernel();
    run = std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
  }
  std::sort(runs.begin(), runs.end());
  std::printf("{\"reference_ns\":%.17g}\n", runs[runs.size() / 2]);
  return 0;
}
