// Assertion-checked version of the Figure 5 reproduction claims, so the
// paper's qualitative results are enforced by CI, not just eyeballed from
// benchmark output:
//
//   (1) the three network series coincide (capability overhead is a small
//       fraction of network time at every size);
//   (2) bandwidth grows with message size and saturates near (but below)
//       the link rate;
//   (3) shared memory beats every network protocol by more than an order
//       of magnitude;
//   (4) the Ethernet run has the same shape as the ATM run.
#include <gtest/gtest.h>

#include "ohpx/scenario/figure5.hpp"

#include <algorithm>

#include "ohpx/common/clock.hpp"

namespace ohpx::scenario {
namespace {

// Median over several iterations: the real-CPU half of the cost model is
// exposed to scheduler noise on a loaded machine, and the median is what
// the paper's "average over a large number of readings" effectively sees.
double series_mbps(scenario::EchoPointer& gp, std::size_t elements,
                   int iterations = 5) {
  std::vector<std::int32_t> values(elements, 7);
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    CostLedger ledger;
    gp->echo_with_cost(ledger, values);
    seconds.push_back(ledger.total_seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  const double median = seconds[seconds.size() / 2];
  const double bytes = 2.0 * 4.0 * static_cast<double>(elements);
  return bytes * 8.0 / (median * 1e6);
}

struct SeriesSet {
  double glue_timeout;
  double glue_timeout_security;
  double nexus;
  double shm;
};

SeriesSet measure(Figure5World& world, std::size_t elements) {
  auto timeout = world.glue_timeout();
  auto security = world.glue_timeout_security();
  auto nexus = world.nexus();
  auto shm = world.shm();
  return SeriesSet{series_mbps(timeout, elements),
                   series_mbps(security, elements), series_mbps(nexus, elements),
                   series_mbps(shm, elements)};
}

TEST(Figure5Shape, AtmReproducesPaperClaims) {
#if defined(OHPX_SANITIZED_BUILD) || (OHPX_LOCK_ORDER_CHECKS && defined(NDEBUG))
  // Instrumentation slows the real-CPU half of the cost model 2-10x,
  // wrecking the real-vs-modeled ratios these shape claims assert on.
  // The lock-order validator distorts them the same way when the
  // OHPX_LOCK_ORDER_CHECKS option forces it into an optimised build: every
  // sync::Mutex acquisition serializes through the registry mutex.
  GTEST_SKIP() << "timing-shape assertions are unreliable under "
                  "sanitizers / lock-order checks";
#endif
  Figure5World world(netsim::atm_155());

  const SeriesSet large = measure(world, 1 << 20);
  // (1) Network series coincide: capability-laden series within ~30% of
  // plain nexus (the paper plots them as visually identical on log axes).
  EXPECT_GT(large.glue_timeout, large.nexus * 0.7);
  EXPECT_GT(large.glue_timeout_security, large.nexus * 0.7);
  EXPECT_LT(large.glue_timeout, large.nexus * 1.3);
  EXPECT_LT(large.glue_timeout_security, large.nexus * 1.3);

  // (2) Saturation: within [50%, 100%] of the 155 Mbps link at 4 MB
  // payloads, and far below it at tiny payloads (latency-bound).
  EXPECT_GT(large.nexus, 155.0 * 0.5);
  EXPECT_LE(large.nexus, 155.0 * 1.01);
  const SeriesSet tiny = measure(world, 16);
  EXPECT_LT(tiny.nexus, 155.0 * 0.05);
  EXPECT_GT(large.nexus, tiny.nexus * 10);  // rises with size

  // (3) Shared memory is roughly an order of magnitude above every
  // network series, at small and large sizes (the paper: "more than an
  // order of magnitude faster"); 8x keeps the assertion robust against
  // CPU-time jitter on loaded machines.
  EXPECT_GT(large.shm, 8 * large.nexus);
  EXPECT_GT(large.shm, 8 * large.glue_timeout_security);
  EXPECT_GT(tiny.shm, 8 * tiny.nexus);
}

TEST(Figure5Shape, EthernetVirtuallyIdenticalShape) {
#if defined(OHPX_SANITIZED_BUILD) || (OHPX_LOCK_ORDER_CHECKS && defined(NDEBUG))
  GTEST_SKIP() << "timing-shape assertions are unreliable under "
                  "sanitizers / lock-order checks";
#endif
  Figure5World world(netsim::fast_ethernet_100());

  const SeriesSet large = measure(world, 1 << 20);
  EXPECT_GT(large.glue_timeout, large.nexus * 0.7);
  EXPECT_GT(large.glue_timeout_security, large.nexus * 0.7);
  EXPECT_GT(large.nexus, 100.0 * 0.5);
  EXPECT_LE(large.nexus, 100.0 * 1.01);
  EXPECT_GT(large.shm, 8 * large.nexus);

  // Ethernet saturates lower than ATM — the link rate orders the plateaus.
  Figure5World atm_world(netsim::atm_155());
  const SeriesSet atm_large = measure(atm_world, 1 << 20);
  EXPECT_GT(atm_large.nexus, large.nexus);
}

}  // namespace
}  // namespace ohpx::scenario
