// End-to-end replicated-directory failover (docs/deployment.md,
// "Replicated directory").
//
// Forks a primary + standby ohpx-named pair and two ohpx-hostd replicas
// whose --named URI lists both directory endpoints, drives echo traffic
// from an in-process client, and kill -9's the *primary directory*
// mid-stream.  Acceptance criteria (ISSUE 10):
//   - zero acknowledged-call loss: every echo call before, during, and
//     after the directory outage returns the right answer;
//   - the standby prints PROMOTED within a small multiple of the
//     `__primary` lease TTL;
//   - entry versions observed by the client never decrease across the
//     failover (the standby's never-rollback contract, end to end);
//   - both service replicas re-register with the promoted directory (the
//     hostd heartbeat loop re-binds when its replica id is refused);
//   - mutations after the failover land on the new primary via endpoint
//     walking / redirects.
//
// And a directory kill -9'd and restarted on its --journal twice: READY is
// still the first stdout line, permanent bindings come back, leased ones do
// not, and no entry version goes backwards; a journal of another format is
// refused and left as it was.  And a malformed flag value stops ohpx-named
// with its usage before READY.
//
// The daemon binaries come from OHPX_NAMED_BIN / OHPX_HOSTD_BIN (set by
// tests/CMakeLists.txt); the test skips when they are absent.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "daemon_harness.hpp"
#include "ohpx/naming/bootstrap.hpp"
#include "ohpx/naming/failover.hpp"
#include "ohpx/naming/name_client.hpp"
#include "ohpx/ohpx.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx {
namespace {

using testutil::Child;
using testutil::read_line;
using testutil::spawn;

std::string reversed(const std::string& text) {
  return std::string(text.rbegin(), text.rend());
}

// The `__primary` lease TTL: promotion should land within a small
// multiple of this once the primary stops renewing.
constexpr int kPrimaryTtlMs = 800;

TEST(DirectoryFailover, KillNinePrimaryPromotesStandbyLosesNothing) {
  const char* named_bin = std::getenv("OHPX_NAMED_BIN");
  const char* hostd_bin = std::getenv("OHPX_HOSTD_BIN");
  if (named_bin == nullptr || hostd_bin == nullptr) {
    GTEST_SKIP() << "OHPX_NAMED_BIN / OHPX_HOSTD_BIN not set";
  }
  const std::string ttl = std::to_string(kPrimaryTtlMs);

  // -- the directory pair --------------------------------------------------
  Child primary = spawn(named_bin, {"--sweep-ms", "100", "--sync-ms", "100",
                                    "--primary-ttl-ms", ttl});
  ASSERT_GT(primary.pid, 0);
  unsigned primary_port = 0;
  char uri_buf[128] = {0};
  ASSERT_EQ(std::sscanf(read_line(primary.out).c_str(), "READY %u %127s",
                        &primary_port, uri_buf),
            2)
      << "primary ohpx-named did not come up";
  const std::string primary_uri = "127.0.0.1:" + std::to_string(primary_port);

  Child standby =
      spawn(named_bin, {"--peer", primary_uri, "--sweep-ms", "100",
                        "--sync-ms", "100", "--primary-ttl-ms", ttl});
  ASSERT_GT(standby.pid, 0);
  unsigned standby_port = 0;
  ASSERT_EQ(std::sscanf(read_line(standby.out).c_str(), "READY %u %127s",
                        &standby_port, uri_buf),
            2)
      << "standby ohpx-named did not come up";
  const std::string standby_uri = "127.0.0.1:" + std::to_string(standby_port);
  const std::string named_uri = primary_uri + "," + standby_uri;

  // -- two service replicas, bootstrap URI naming both directories ---------
  std::vector<Child> replicas;
  for (const char* machine : {"srv-a", "srv-b"}) {
    Child replica = spawn(
        hostd_bin, {"--named", named_uri, "--machine", machine, "--serve",
                    "svc/echo", "--heartbeat-ms", "150", "--ttl-ms", "1200"});
    ASSERT_GT(replica.pid, 0);
    int pid = 0;
    unsigned port = 0;
    unsigned long long replica_id = 0;
    ASSERT_EQ(std::sscanf(read_line(replica.out).c_str(), "READY %d %u %llu",
                          &pid, &port, &replica_id),
              3)
        << machine << " did not come up";
    // Keep the replica running for the whole test (reaped at scope exit).
    replicas.push_back(std::move(replica));
  }

  runtime::World world;
  const netsim::LanId lan = world.add_lan("client-lan");
  orb::Context& ctx = world.create_context(world.add_machine("client", lan));
  naming::NameClient names(ctx, named_uri);
  EXPECT_EQ(names.endpoint_count(), 2u);
  naming::ReplicaPointer<scenario::EchoStub> echo(ctx, names, "svc/echo");

  // Wait until the *standby's replicated copy* of svc/echo matches the
  // primary (both replicas registered and synced) before any kills, so the
  // version sequence the client observes has no async-replication lag left
  // in it when the primary dies.
  naming::NameClient standby_names(ctx, standby_uri);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (true) {
    const auto on_primary = names.resolve_all("svc/echo");
    const auto on_standby = standby_names.resolve_all("svc/echo");
    if (on_primary.second.size() == 2 &&
        on_standby.first == on_primary.first &&
        on_standby.second.size() == 2) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replicas never registered on both directories (primary sees "
        << on_primary.second.size() << ", standby sees "
        << on_standby.second.size() << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // ohpx-lint: allow-wall-clock (polling real daemons across process boundaries)
  }

  std::vector<std::uint64_t> versions;
  int calls = 0;
  const auto drive = [&](int count) {
    for (int i = 0; i < count; ++i, ++calls) {
      const std::string text = "call-" + std::to_string(calls);
      std::string out;
      try {
        out = echo.call(
            [&](scenario::EchoStub& stub) { return stub.reverse(text); });
      } catch (const Error& e) {
        FAIL() << "call " << calls << " escaped: " << e.what();
      }
      ASSERT_EQ(out, reversed(text)) << "call " << calls << " corrupted";
      if (i % 4 == 0) {
        versions.push_back(names.resolve_all("svc/echo").first);
      }
    }
  };

  drive(40);

  // -- kill -9 the primary directory mid-traffic ---------------------------
  // Drain the standby's startup chatter first: a PROMOTED before the kill
  // would mean the standby promoted under a *live* primary (e.g. its
  // catch-up fetch looped back onto itself).
  while (true) {
    const std::string early = read_line(standby.out, /*timeout_ms=*/0);
    if (early.empty()) break;
    ASSERT_NE(early.rfind("PROMOTED", 0), 0u)
        << "standby promoted while the primary was alive";
  }
  const auto killed_at = std::chrono::steady_clock::now();
  primary.reap(SIGKILL);

  // Acknowledged service traffic must ride straight through the directory
  // outage: echo calls are replica-direct, and directory *reads* fail over
  // to the standby via endpoint walking.
  drive(20);

  // The standby must promote itself once the replicated `__primary` lease
  // lapses.  One TTL is the mechanism's floor; the bound leaves room for
  // the poll cadence and sanitizer/CI scheduling jitter.
  std::string line;
  while (true) {
    line = read_line(standby.out, 15'000);
    if (line.empty() || line.rfind("PROMOTED", 0) == 0) break;
  }
  ASSERT_EQ(line.rfind("PROMOTED", 0), 0u) << "standby never promoted";
  const auto promoted_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - killed_at)
          .count();
  EXPECT_LE(promoted_ms, 5 * kPrimaryTtlMs)
      << "promotion took " << promoted_ms << " ms against a "
      << kPrimaryTtlMs << " ms lease";

  // -- the promoted directory takes writes and wins back the replicas -----
  const auto reregistered = std::chrono::steady_clock::now() +
                            std::chrono::seconds(10);
  while (names.resolve_all("svc/echo").second.size() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), reregistered)
        << "service replicas never re-registered with the promoted standby";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // ohpx-lint: allow-wall-clock (waiting out real hostd heartbeat re-registration)
  }

  // A post-failover mutation must land (endpoint walk reaches the new
  // primary) and be readable back.
  names.bind("svc/after-failover", naming::make_bootstrap_ref("10.9.9.9", 7999));
  EXPECT_EQ(names.resolve("svc/after-failover"),
            naming::make_bootstrap_ref("10.9.9.9", 7999));

  drive(20);

  // -- acceptance ----------------------------------------------------------
  EXPECT_EQ(calls, 80) << "an acknowledged call was lost across the failover";
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_GE(versions[i], versions[i - 1])
        << "entry version rolled back across the failover (observation " << i
        << ": " << versions[i - 1] << " -> " << versions[i] << ")";
  }
}

TEST(DirectoryFailover, JournalSurvivesKillNineRestart) {
  const char* named_bin = std::getenv("OHPX_NAMED_BIN");
  if (named_bin == nullptr) GTEST_SKIP() << "OHPX_NAMED_BIN not set";
  const std::string journal =
      testing::TempDir() + "ohpx_named_journal_" + std::to_string(::getpid());
  std::remove(journal.c_str());

  // Boots ohpx-named on the journal; its URI, or "" when the first stdout
  // line is not READY.
  const auto boot = [&](Child& daemon) -> std::string {
    daemon = spawn(named_bin, {"--journal", journal});
    unsigned port = 0;
    char uri_buf[128] = {0};
    const std::string first = read_line(daemon.out);
    if (std::sscanf(first.c_str(), "READY %u %127s", &port, uri_buf) != 2) {
      ADD_FAILURE() << "first stdout line is not READY: '" << first << "'";
      return "";
    }
    return "127.0.0.1:" + std::to_string(port);
  };

  runtime::World world;
  const netsim::LanId lan = world.add_lan("client-lan");
  orb::Context& ctx = world.create_context(world.add_machine("client", lan));
  const orb::ObjectRef permanent = naming::make_bootstrap_ref("10.9.9.1", 7001);
  const orb::ObjectRef leased = naming::make_bootstrap_ref("10.9.9.2", 7002);

  Child daemon;
  std::string uri = boot(daemon);
  ASSERT_FALSE(uri.empty());
  std::uint64_t permanent_version = 0;
  std::uint64_t leased_version = 0;
  {
    naming::NameClient names(ctx, uri);
    names.bind("svc/permanent", permanent);
    names.bind_replica("svc/leased", leased, std::chrono::seconds(60));
    permanent_version = names.resolve_all("svc/permanent").first;
    const auto [version, live] = names.resolve_all("svc/leased");
    ASSERT_EQ(live.size(), 1u);
    leased_version = version;
  }

  for (const char* restart : {"replaying the appended journal",
                              "replaying the compacted journal"}) {
    SCOPED_TRACE(restart);
    daemon.reap(SIGKILL);
    uri = boot(daemon);
    ASSERT_FALSE(uri.empty());
    naming::NameClient names(ctx, uri);
    const auto [version, live] = names.resolve_all("svc/permanent");
    EXPECT_GE(version, permanent_version);
    ASSERT_EQ(live.size(), 1u) << "the permanent binding did not come back";
    EXPECT_EQ(live[0], permanent);
    const auto [gone_version, gone] = names.resolve_all("svc/leased");
    EXPECT_GE(gone_version, leased_version);
    EXPECT_TRUE(gone.empty()) << "a leased registration outlived its daemon";
  }
  daemon.reap(SIGKILL);

  // A journal of another format (here, a version-1 magic) is refused: the
  // daemon exits non-zero before READY and leaves the file as it was.
  const std::string foreign = "OHPXJNL1 and a record the reader cannot know";
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << foreign;
  Child refused = spawn(named_bin, {"--journal", journal});
  ASSERT_GT(refused.pid, 0);
  EXPECT_EQ(read_line(refused.out), "");
  int status = 0;
  ASSERT_EQ(::waitpid(refused.pid, &status, 0), refused.pid);
  refused.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) != 0)
      << "ohpx-named accepted a foreign journal";
  std::ifstream in(journal, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()),
            foreign);
  std::remove(journal.c_str());
}

// A malformed value, a number or a --peer port, is a usage error refused
// before READY: not read as the digits it starts with, wrapped into range
// or replaced by a default.
TEST(DirectoryFailover, MalformedFlagValuesExitTwoBeforeReady) {
  const char* named_bin = std::getenv("OHPX_NAMED_BIN");
  if (named_bin == nullptr) GTEST_SKIP() << "OHPX_NAMED_BIN not set";
  const std::vector<std::vector<std::string>> bad_flags = {
      {"--port", "70000"},   {"--port", "abc"},     {"--sweep-ms", "5s"},
      {"--sweep-ms", "0"},   {"--sync-ms", "-1"},   {"--primary-ttl-ms", "0"},
      {"--run-ms", "+100"},  {"--peer", "127.0.0.1:7400abc"}};
  for (const auto& flags : bad_flags) {
    const std::string shown = flags[0] + " " + flags[1];
    // --run-ms keeps a daemon that wrongly starts from outliving the test.
    std::vector<std::string> args = flags;
    if (flags[0] != "--run-ms") args.insert(args.end(), {"--run-ms", "2000"});
    Child daemon = spawn(named_bin, args);
    ASSERT_GT(daemon.pid, 0);
    EXPECT_EQ(read_line(daemon.out), "") << shown << " printed a line";
    int status = 0;
    ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
    daemon.pid = -1;
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
        << shown << " did not exit 2";
  }
}

}  // namespace
}  // namespace ohpx
