// Lock-order validator tests (ohpx/sync/lock_order.hpp).
//
// These use sync::OrderedMutex — the always-checked flavor — so the
// validator is exercised even in the RelWithDebInfo tier-1 build where
// plain sync::Mutex compiles the checks out.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ohpx/sync/lock_order.hpp"
#include "ohpx/sync/mutex.hpp"

namespace {

using ohpx::sync::LockGuard;
using ohpx::sync::OrderedMutex;
using ohpx::sync::UniqueLock;
namespace lock_order = ohpx::sync::lock_order;

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override { lock_order::reset_for_testing(); }
  void TearDown() override { lock_order::reset_for_testing(); }
};

void lock_in_order(OrderedMutex& first, OrderedMutex& second) {
  LockGuard outer(first);
  LockGuard inner(second);
}

TEST_F(LockOrderTest, CleanOrderingProducesNoReports) {
  OrderedMutex a("lo.clean.a");
  OrderedMutex b("lo.clean.b");
  OrderedMutex c("lo.clean.c");

  // Consistent a -> b -> c nesting from several sites, plus plain
  // non-nested use: none of this is an inversion.
  lock_in_order(a, b);
  lock_in_order(b, c);
  lock_in_order(a, b);
  {
    LockGuard la(a);
    LockGuard lb(b);
    LockGuard lc(c);
  }
  { LockGuard lone(c); }

  EXPECT_EQ(lock_order::report_count(), 0u);
  EXPECT_TRUE(lock_order::take_reports().empty());
}

TEST_F(LockOrderTest, TwoMutexInversionIsReported) {
  OrderedMutex a("lo.inv.a");
  OrderedMutex b("lo.inv.b");

  lock_in_order(a, b);
  EXPECT_EQ(lock_order::report_count(), 0u);

  lock_in_order(b, a);  // the inversion
  ASSERT_EQ(lock_order::report_count(), 1u);

  const auto reports = lock_order::take_reports();
  ASSERT_EQ(reports.size(), 1u);
  const auto& report = reports.front();

  // Participants, canonicalized (lexicographically smallest name first).
  const std::vector<std::string> expected{"lo.inv.a", "lo.inv.b"};
  EXPECT_EQ(report.cycle, expected);

  // The report names both acquisition sites in this file.
  EXPECT_NE(report.description.find("potential deadlock"), std::string::npos);
  EXPECT_NE(report.description.find("closing edge"), std::string::npos);
  EXPECT_NE(report.description.find("established order"), std::string::npos);
  EXPECT_EQ(count_occurrences(report.description, "test_lock_order.cpp"), 4u);
  EXPECT_EQ(count_occurrences(report.description, "\"lo.inv.a\""), 2u);
  EXPECT_EQ(count_occurrences(report.description, "\"lo.inv.b\""), 2u);

  // Draining is destructive.
  EXPECT_EQ(lock_order::report_count(), 0u);
}

TEST_F(LockOrderTest, ReportIsDeterministic) {
  // The same inversion replayed from the same sites renders the same
  // report, byte for byte.
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    lock_order::reset_for_testing();
    OrderedMutex a("lo.det.a");
    OrderedMutex b("lo.det.b");
    lock_in_order(a, b);
    lock_in_order(b, a);
    const auto reports = lock_order::take_reports();
    ASSERT_EQ(reports.size(), 1u);
    *out = reports.front().description;
  }
  EXPECT_EQ(first, second);
}

TEST_F(LockOrderTest, DuplicateInversionReportedOnce) {
  OrderedMutex a("lo.dup.a");
  OrderedMutex b("lo.dup.b");

  lock_in_order(a, b);
  for (int i = 0; i < 3; ++i) lock_in_order(b, a);

  EXPECT_EQ(lock_order::report_count(), 1u);
}

TEST_F(LockOrderTest, TransitiveCycleThroughThreeMutexes) {
  OrderedMutex a("lo.tri.a");
  OrderedMutex b("lo.tri.b");
  OrderedMutex c("lo.tri.c");

  // Establish a -> b and b -> c (a -> c is implied, never recorded
  // directly: edges are taken from the top of the held stack only).
  {
    LockGuard la(a);
    LockGuard lb(b);
    LockGuard lc(c);
  }
  EXPECT_EQ(lock_order::report_count(), 0u);

  lock_in_order(c, a);  // closes a -> b -> c -> a
  ASSERT_EQ(lock_order::report_count(), 1u);

  const auto reports = lock_order::take_reports();
  ASSERT_EQ(reports.front().cycle.size(), 3u);
  const std::vector<std::string> expected{"lo.tri.a", "lo.tri.b", "lo.tri.c"};
  EXPECT_EQ(reports.front().cycle, expected);
  // Two previously recorded edges on the cycle, each cited.
  EXPECT_EQ(count_occurrences(reports.front().description,
                              "established order"),
            2u);
}

TEST_F(LockOrderTest, ReportsRankShortestCycleFirst) {
  OrderedMutex a("lo.rank.a");
  OrderedMutex b("lo.rank.b");
  OrderedMutex c("lo.rank.c");

  // First a 3-cycle, then a 2-cycle: take_reports() ranks the 2-cycle
  // first regardless of discovery order.
  {
    LockGuard la(a);
    LockGuard lb(b);
    LockGuard lc(c);
  }
  lock_in_order(c, a);
  lock_in_order(b, a);

  const auto reports = lock_order::take_reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].cycle.size(), 2u);
  EXPECT_EQ(reports[1].cycle.size(), 3u);
}

TEST_F(LockOrderTest, AbbaAcrossInstancesOfOneLockClass) {
  // Names are lock classes: two *instances* with the same name acquired
  // in both orders is the classic ABBA deadlock, and the validator
  // collapses them onto one node... but a self-edge (same class nested
  // under itself) is deliberately not an inversion report.
  OrderedMutex left("lo.abba.peer");
  OrderedMutex right("lo.abba.peer");
  {
    LockGuard ll(left);
    LockGuard lr(right);
  }
  {
    LockGuard lr(right);
    LockGuard ll(left);
  }
  EXPECT_EQ(lock_order::report_count(), 0u);

  // Distinct classes, inverted across instances, still reported.
  OrderedMutex other("lo.abba.other");
  {
    LockGuard ll(left);
    LockGuard lo(other);
  }
  {
    LockGuard lo(other);
    LockGuard lr(right);  // other -> peer closes peer -> other -> peer
  }
  EXPECT_EQ(lock_order::report_count(), 1u);
}

TEST_F(LockOrderTest, TryLockParticipatesInOrdering) {
  OrderedMutex a("lo.try.a");
  OrderedMutex b("lo.try.b");

  {
    LockGuard la(a);
    ASSERT_TRUE(b.try_lock());
    b.unlock();
  }
  lock_in_order(b, a);
  EXPECT_EQ(lock_order::report_count(), 1u);
}

TEST_F(LockOrderTest, UniqueLockParticipatesInOrdering) {
  OrderedMutex a("lo.uniq.a");
  OrderedMutex b("lo.uniq.b");

  {
    UniqueLock la(a);
    LockGuard lb(b);
  }
  {
    LockGuard lb(b);
    UniqueLock la(a);
  }
  EXPECT_EQ(lock_order::report_count(), 1u);
}

TEST_F(LockOrderTest, OutOfOrderReleaseIsHandled) {
  OrderedMutex a("lo.ooo.a");
  OrderedMutex b("lo.ooo.b");
  OrderedMutex c("lo.ooo.c");

  // Release the *outer* lock first: the held stack must drop the entry
  // for `a` specifically, leaving `b` as the holder `c` nests under.
  a.lock();
  b.lock();    // records a -> b
  a.unlock();  // out-of-order release
  {
    LockGuard lc(c);  // must record b -> c (a -> c if the pop were wrong)
  }
  b.unlock();

  lock_in_order(c, a);
  const auto reports = lock_order::take_reports();
  ASSERT_EQ(reports.size(), 1u);
  // The correct graph closes the 3-cycle a -> b -> c -> a here.  A
  // 2-cycle {a, c} instead would mean on_release popped the top of the
  // stack rather than the matching hold.
  const std::vector<std::string> expected{"lo.ooo.a", "lo.ooo.b", "lo.ooo.c"};
  EXPECT_EQ(reports.front().cycle, expected);
}

TEST_F(LockOrderTest, ReleaseMutexCompilesOutValidator) {
  // Release builds must pay nothing for the validator in sync::Mutex:
  // the unchecked flavor carries no node pointer, so it is exactly the
  // size of the wrapped mutex plus its name.
  using Unchecked = ohpx::sync::BasicMutex<false>;
  using Checked = ohpx::sync::BasicMutex<true>;
  static_assert(sizeof(Unchecked) < sizeof(Checked),
                "unchecked flavor must not carry validator state");

  // And an unchecked inversion is invisible to the registry.
  Unchecked a("lo.rel.a");
  Unchecked b("lo.rel.b");
  {
    LockGuard la(a);
    LockGuard lb(b);
  }
  {
    LockGuard lb(b);
    LockGuard la(a);
  }
  EXPECT_EQ(lock_order::report_count(), 0u);
}

// ---- locking from a static destructor -------------------------------------
//
// At exit the main thread's thread_locals (the validator's held-lock stack
// among them) are destroyed before static destructors run, and static
// destructors still lock validated mutexes: ThreadPool::shutdown and
// Reactor::stop do.  g_locks_at_exit is destroyed at exit and locks a
// mutex the suite also locks on the main thread, so the validator must
// stop tracking instead of pushing onto the freed stack.  ASan reports
// that write as a heap-use-after-free after every test has passed; without
// a sanitizer it corrupts the heap silently.

OrderedMutex g_exit_mutex("lo.exit");

TEST_F(LockOrderTest, MutexLockedOnTheMainThreadAndAgainAtExit) {
  LockGuard lock(g_exit_mutex);
  EXPECT_EQ(lock_order::report_count(), 0u);
}

struct LocksAtExit {
  ~LocksAtExit() { LockGuard lock(g_exit_mutex); }
} g_locks_at_exit;

}  // namespace
