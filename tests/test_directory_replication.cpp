// Replicated-directory tests (docs/deployment.md, "Replicated directory"):
//   - journal framing: round-trip, torn-tail recovery, checksum rejection,
//     a foreign file refused, restart (replay through apply_update)
//     restoring every permanent bind and the version floor;
//   - the catch-up stream: full snapshot on join, incremental deltas,
//     never-rollback application, lease freshness riding equal versions,
//     a full resend after the primary restarts;
//   - standby role enforcement: mutations refused with a redirect the
//     NameClient follows to the primary, endpoint walking on dead
//     bootstrap endpoints;
//   - multi-endpoint bootstrap URIs and multi-ref files, including the
//     rename-race retry;
//   - a seeded property sweep on a ManualClock: after any mutation mix,
//     a synced standby holds an identical namespace at identical entry
//     versions, and a replay of the primary's journal holds its durable
//     state.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/rng.hpp"
#include "ohpx/naming/bootstrap.hpp"
#include "ohpx/naming/journal.hpp"
#include "ohpx/naming/name_client.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/naming/replication.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/runtime/world.hpp"

namespace ohpx::naming {
namespace {

using std::chrono::milliseconds;

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + "ohpx_" + stem + "_" +
         std::to_string(::getpid());
}

/// Distinct host/port pairs make distinct replica identities (same_replica
/// keys on the home endpoint), which is all these tests need from a ref.
orb::ObjectRef ref_at(const std::string& host, std::uint16_t port) {
  return make_bootstrap_ref(host, port);
}

/// A journal record: `name` at `version`, holding `refs` as permanent
/// replicas with ids 1, 2, ...
NameSnapshot durable(const std::string& name, std::uint64_t version,
                     const std::vector<orb::ObjectRef>& refs = {}) {
  NameSnapshot record{name, version, {}};
  for (const orb::ObjectRef& ref : refs) {
    record.replicas.push_back(
        {record.replicas.size() + 1, ref.to_bytes(), true, 0});
  }
  return record;
}

/// Journal replay, as the daemon boots: apply_update over every record.
void replay(NameServiceServant& servant, const std::string& path) {
  for (const NameSnapshot& record : Journal::recover(path)) {
    servant.apply_update(record);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---- journal framing -------------------------------------------------------------

TEST(DirectoryJournal, AppendRecoverRoundTrip) {
  const std::string path = temp_path("journal_rt");
  std::remove(path.c_str());
  {
    Journal journal(path);
    journal.append(durable("svc/a", 1, {ref_at("h", 1)}));
    journal.append(durable("svc/b", 7));
    journal.append(durable("svc/a", 9, {ref_at("h", 1), ref_at("h", 2)}));
    EXPECT_EQ(journal.records_written(), 3u);
  }
  const auto records = Journal::recover(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "svc/a");
  EXPECT_EQ(records[0].version, 1u);
  ASSERT_EQ(records[0].replicas.size(), 1u);
  EXPECT_EQ(records[0].replicas[0].ref, ref_at("h", 1).to_bytes());
  EXPECT_TRUE(records[0].replicas[0].permanent);
  EXPECT_EQ(records[1].name, "svc/b");
  EXPECT_EQ(records[1].version, 7u);
  EXPECT_TRUE(records[1].replicas.empty());
  ASSERT_EQ(records[2].replicas.size(), 2u);
  EXPECT_EQ(records[2].replicas[1].replica_id, 2u);
  EXPECT_EQ(records[2].replicas[1].ref, ref_at("h", 2).to_bytes());
  std::remove(path.c_str());
}

TEST(DirectoryJournal, MissingFileIsEmptyJournal) {
  EXPECT_TRUE(Journal::recover(temp_path("journal_never_written")).empty());
}

TEST(DirectoryJournal, ForeignFileIsRefusedNotReplaced) {
  const std::string path = temp_path("journal_foreign");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "";
  EXPECT_TRUE(Journal::recover(path).empty()) << "an empty file is a journal";

  // A version-1 journal and a wrong path look alike: not OHPXJNL2.
  for (const std::string& foreign :
       {std::string("OHPXJNL1\x05\0\0\0garbage", 19),
        std::string("#!/bin/sh\necho not a journal\n"), std::string("OHPX")}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << foreign;
    try {
      Journal::recover(path);
      ADD_FAILURE() << "a foreign file replayed as a journal";
    } catch (const ObjectError& error) {
      EXPECT_EQ(error.code(), ErrorCode::bad_object_ref);
    }
    EXPECT_EQ(read_file(path), foreign) << "the refused file was touched";
  }
  std::remove(path.c_str());
}

TEST(DirectoryJournal, TruncatedLastRecordIsDropped) {
  const std::string path = temp_path("journal_torn");
  std::remove(path.c_str());
  {
    Journal journal(path);
    journal.append(durable("svc/a", 1));
    journal.append(durable("svc/b", 2));
    journal.append(durable("svc/c", 3));
  }
  // Tear mid-frame: chop the last few bytes, as a crash mid-append would.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::string raw(size, '\0');
  in.read(raw.data(), static_cast<std::streamsize>(size));
  in.close();
  raw.resize(size - 3);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;

  const auto records = Journal::recover(path);
  ASSERT_EQ(records.size(), 2u) << "torn tail must go, complete prefix stays";
  EXPECT_EQ(records[0].name, "svc/a");
  EXPECT_EQ(records[1].name, "svc/b");
  std::remove(path.c_str());
}

TEST(DirectoryJournal, CorruptChecksumEndsReplay) {
  const std::string path = temp_path("journal_bitrot");
  std::remove(path.c_str());
  {
    Journal journal(path);
    journal.append(durable("svc/a", 1));
    journal.append(durable("svc/b", 2));
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(-1, std::ios::end);  // flip a byte in the last payload
  const char garbage = '\xff';
  file.write(&garbage, 1);
  file.close();

  const auto records = Journal::recover(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "svc/a");
  std::remove(path.c_str());
}

TEST(DirectoryJournal, RestartRestoresPermanentBindsAndVersionFloor) {
  const std::string path = temp_path("journal_restart");
  std::remove(path.c_str());
  const auto echo_a = ref_at("10.0.0.1", 7001);
  const auto echo_b = ref_at("10.0.0.2", 7002);
  std::uint64_t churn_version = 0;
  {
    NameServiceServant before;
    before.attach_journal(std::make_shared<Journal>(path));
    before.bind("svc/perm", echo_a);
    before.bind_replica("svc/perm", echo_b, milliseconds(0));
    // Leased churn bumps the version without leaving durable replicas.
    const auto id =
        before.bind_replica("svc/leased", echo_a, milliseconds(60'000));
    before.unbind_replica("svc/leased", id);
    churn_version = before.version_of("svc/leased");
    EXPECT_GT(churn_version, 0u);
    // A permanent replica withdrawn before the crash must not resurrect.
    before.bind("svc/gone", echo_b);
    before.unbind("svc/gone");
  }
  NameServiceServant after;
  replay(after, path);

  const auto [version, live] = after.resolve_all("svc/perm");
  EXPECT_EQ(version, 2u);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], echo_a);
  EXPECT_EQ(live[1], echo_b);
  EXPECT_FALSE(after.resolve("svc/gone").has_value());
  EXPECT_FALSE(after.resolve("svc/leased").has_value());
  EXPECT_GE(after.version_of("svc/leased"), churn_version)
      << "version floor lost: a restarted daemon could reissue a version "
         "a client cache already holds";
  EXPECT_GE(after.version_of("svc/gone"), 2u);

  // Compaction (what the daemon does on boot) preserves the same state in
  // a minimal journal.
  Journal::compact(path, after.journal_snapshot());
  NameServiceServant compacted;
  replay(compacted, path);
  EXPECT_EQ(compacted.resolve_all("svc/perm").second.size(), 2u);
  EXPECT_GE(compacted.version_of("svc/leased"), churn_version);
  std::remove(path.c_str());
}

TEST(DirectoryJournal,
     WithdrawingOneOfTwoRegistrationsOfOneRefSurvivesRestart) {
  const std::string path = temp_path("journal_twice");
  std::remove(path.c_str());
  const auto echo = ref_at("10.0.0.1", 7001);
  std::uint64_t kept = 0;
  {
    // A retried bind_replica registers the same reference twice.
    NameServiceServant before;
    before.attach_journal(std::make_shared<Journal>(path));
    const auto withdrawn =
        before.bind_replica("svc/twice", echo, milliseconds(0));
    kept = before.bind_replica("svc/twice", echo, milliseconds(0));
    ASSERT_TRUE(before.unbind_replica("svc/twice", withdrawn));
    ASSERT_EQ(before.resolve_all("svc/twice").second.size(), 1u);
  }
  NameServiceServant after;
  replay(after, path);
  const auto [version, live] = after.resolve_all("svc/twice");
  EXPECT_EQ(version, 3u);
  ASSERT_EQ(live.size(), 1u)
      << "the registration still held vanished on restart";
  EXPECT_EQ(live[0], echo);
  // The survivor keeps its id: its owner can still withdraw it.
  EXPECT_TRUE(after.unbind_replica("svc/twice", kept));
  std::remove(path.c_str());
}

// ---- catch-up stream (servant level) ---------------------------------------------

TEST(DirectoryCatchUp, FullSnapshotOnJoinThenIncrementalDeltas) {
  NameServiceServant primary;
  NameServiceServant standby;
  standby.set_role(NameServiceServant::Role::standby);

  primary.bind("svc/a", ref_at("10.0.0.1", 7001));
  primary.bind_replica("svc/b", ref_at("10.0.0.2", 7002), milliseconds(0));

  // Cold join: since = 0 answers with the whole namespace.
  auto [seq1, full] = primary.fetch_updates(0);
  EXPECT_EQ(full.size(), 2u);
  for (const auto& snapshot : full) EXPECT_TRUE(standby.apply_update(snapshot));
  EXPECT_EQ(standby.size(), 2u);
  EXPECT_EQ(standby.version_of("svc/a"), primary.version_of("svc/a"));

  // Caught up: only the mutated name comes back (no __primary bound here).
  primary.bind("svc/a", ref_at("10.0.0.3", 7003), /*rebind=*/true);
  auto [seq2, delta] = primary.fetch_updates(seq1);
  EXPECT_GT(seq2, seq1);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "svc/a");
  EXPECT_TRUE(standby.apply_update(delta[0]));
  EXPECT_EQ(*standby.resolve("svc/a"), ref_at("10.0.0.3", 7003));

  // Quiescent primary: the delta is empty.
  EXPECT_TRUE(primary.fetch_updates(seq2).second.empty());
}

TEST(DirectoryCatchUp, StaleSnapshotNeverRollsAVersionBack) {
  NameServiceServant primary;
  NameServiceServant standby;
  standby.set_role(NameServiceServant::Role::standby);

  primary.bind("svc/a", ref_at("10.0.0.1", 7001));
  const auto old_snapshot = primary.fetch_updates(0).second;
  primary.bind("svc/a", ref_at("10.0.0.2", 7002), /*rebind=*/true);
  const auto new_snapshot = primary.fetch_updates(0).second;

  ASSERT_EQ(new_snapshot.size(), 1u);
  EXPECT_TRUE(standby.apply_update(new_snapshot[0]));
  const auto version = standby.version_of("svc/a");

  // A delayed, reordered older snapshot must be a no-op.
  ASSERT_EQ(old_snapshot.size(), 1u);
  EXPECT_FALSE(standby.apply_update(old_snapshot[0]));
  EXPECT_EQ(standby.version_of("svc/a"), version);
  EXPECT_EQ(*standby.resolve("svc/a"), ref_at("10.0.0.2", 7002));
}

TEST(DirectoryCatchUp, EqualVersionSnapshotRefreshesLeases) {
  resilience::ScopedManualClock clock;
  NameServiceServant primary;
  NameServiceServant standby;
  standby.set_role(NameServiceServant::Role::standby);

  const auto seat = primary.bind_replica(kPrimaryName, ref_at("10.0.0.1", 7400),
                                         milliseconds(1000));
  for (const auto& snapshot : primary.fetch_updates(0).second) {
    standby.apply_update(snapshot);
  }

  // Heartbeats renew the primary's lease without bumping the version; the
  // refreshed remaining time must still reach the standby, else it would
  // promote under a live primary.
  for (int round = 0; round < 5; ++round) {
    clock.clock().advance(std::chrono::milliseconds(600));
    primary.heartbeat(kPrimaryName, seat, milliseconds(1000));
    for (const auto& snapshot : primary.fetch_updates(0).second) {
      standby.apply_update(snapshot);
    }
    EXPECT_TRUE(standby.resolve(kPrimaryName).has_value())
        << "round " << round << ": replicated __primary lease lapsed "
        << "despite heartbeats";
  }
  // And once heartbeats stop, the replicated lease does lapse.
  clock.clock().advance(std::chrono::milliseconds(1500));
  EXPECT_FALSE(standby.resolve(kPrimaryName).has_value());
}

TEST(DirectoryCatchUp, RestartedPrimaryResendsToItsStandby) {
  // A primary restarted from its compacted journal numbers its stream
  // afresh.  The standby's `since` is then ahead of every sequence the
  // restarted primary has minted (no further writes), or behind the newest
  // ones but still ahead of the write it lacks (40 more writes).
  for (const int more_writes : {0, 40}) {
    SCOPED_TRACE("writes after the lost one: " + std::to_string(more_writes));
    const std::string path = temp_path("journal_resend");
    std::remove(path.c_str());
    NameServiceServant standby;
    standby.set_role(NameServiceServant::Role::standby);
    std::uint64_t since = 0;
    {
      NameServiceServant before;
      before.attach_journal(std::make_shared<Journal>(path));
      for (std::uint16_t i = 0; i < 20; ++i) {
        before.bind("svc/a", ref_at("10.0.0.1", 7000 + i), /*rebind=*/true);
      }
      auto [seq, updates] = before.fetch_updates(since);
      for (const auto& snapshot : updates) standby.apply_update(snapshot);
      since = seq;
      Journal::compact(path, before.journal_snapshot());
    }
    NameServiceServant after;
    replay(after, path);
    after.bind("svc/b", ref_at("10.0.0.2", 7100));
    for (std::uint16_t i = 0; i < more_writes; ++i) {
      after.bind("svc/c", ref_at("10.0.0.3", 7200 + i), /*rebind=*/true);
    }
    for (const auto& snapshot : after.fetch_updates(since).second) {
      standby.apply_update(snapshot);
    }
    EXPECT_EQ(standby.resolve("svc/b"), ref_at("10.0.0.2", 7100))
        << "the standby never received a write made after the restart";
    EXPECT_EQ(standby.version_of("svc/a"), after.version_of("svc/a"));
    EXPECT_EQ(standby.version_of("svc/c"), after.version_of("svc/c"));
    std::remove(path.c_str());
  }
}

TEST(DirectoryCatchUp, StandbyRefusesMutationsLocally) {
  NameServiceServant standby;
  standby.set_role(NameServiceServant::Role::standby);
  standby.set_primary_hint("10.1.2.3:7400");
  try {
    standby.bind("svc/a", ref_at("10.0.0.1", 7001));
    FAIL() << "standby accepted a mutation";
  } catch (const ObjectError& error) {
    EXPECT_EQ(error.code(), ErrorCode::not_primary);
    EXPECT_NE(std::string(error.what()).find("primary=10.1.2.3:7400"),
              std::string::npos)
        << error.what();
  }
}

// ---- standby redirects through the ORB -------------------------------------------

class ReplicatedPairFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    primary_ctx_ = &world_.create_context(world_.add_machine("prim", lan));
    standby_ctx_ = &world_.create_context(world_.add_machine("stby", lan));
    client_ctx_ = &world_.create_context(world_.add_machine("client", lan));
    primary_ctx_->enable_tcp("127.0.0.1", 0, "");
    standby_ctx_->enable_tcp("127.0.0.1", 0, "");

    primary_ = std::make_shared<NameServiceServant>();
    standby_ = std::make_shared<NameServiceServant>();
    standby_->set_role(NameServiceServant::Role::standby);
    primary_ctx_->activate_with_id(kWellKnownNameServiceId, primary_);
    standby_ctx_->activate_with_id(kWellKnownNameServiceId, standby_);

    primary_port_ = primary_ctx_->current_address().tcp_port;
    standby_port_ = standby_ctx_->current_address().tcp_port;
    // The primary takes the seat, exactly as the daemon does.
    primary_->bind_replica(kPrimaryName, ref_at("127.0.0.1", primary_port_),
                           std::chrono::seconds(30));
  }

  runtime::World world_;
  orb::Context* primary_ctx_ = nullptr;
  orb::Context* standby_ctx_ = nullptr;
  orb::Context* client_ctx_ = nullptr;
  std::shared_ptr<NameServiceServant> primary_;
  std::shared_ptr<NameServiceServant> standby_;
  std::uint16_t primary_port_ = 0;
  std::uint16_t standby_port_ = 0;
};

TEST_F(ReplicatedPairFixture, ClientFollowsStandbyRedirectToPrimary) {
  Replicator replicator(*standby_ctx_, *standby_,
                        ref_at("127.0.0.1", primary_port_),
                        ReplicatorConfig{});
  ASSERT_TRUE(replicator.poll_once());
  ASSERT_TRUE(standby_->resolve(kPrimaryName).has_value());

  // The client only knows the standby; its bind must still land on the
  // primary, via the redirect riding the not_primary refusal.
  NameClient names(*client_ctx_, {ref_at("127.0.0.1", standby_port_)});
  names.bind("svc/echo", ref_at("10.0.0.9", 7009));
  EXPECT_TRUE(primary_->resolve("svc/echo").has_value());
  EXPECT_FALSE(replicator.promoted());

  // The next catch-up poll carries the write back to the standby, where
  // reads are allowed.
  ASSERT_TRUE(replicator.poll_once());
  EXPECT_TRUE(standby_->resolve("svc/echo").has_value());
  EXPECT_EQ(standby_->version_of("svc/echo"), primary_->version_of("svc/echo"));
}

TEST_F(ReplicatedPairFixture, MidElectionRefusalEscapesToCaller) {
  // No replication yet and no hint: the standby cannot name a primary, so
  // the client's single redirect cannot be taken and the error escapes.
  NameClient names(*client_ctx_, {ref_at("127.0.0.1", standby_port_)});
  try {
    names.bind("svc/echo", ref_at("10.0.0.9", 7009));
    FAIL() << "mutation on a hintless standby should refuse";
  } catch (const ObjectError& error) {
    EXPECT_EQ(error.code(), ErrorCode::not_primary);
  }
}

TEST_F(ReplicatedPairFixture, ClientWalksDeadBootstrapEndpoint) {
  // Endpoint 0 refuses connections (port 1 is unbound); the client walks
  // to the live primary instead of surfacing the transport error.
  NameClient names(*client_ctx_, {ref_at("127.0.0.1", 1),
                                  ref_at("127.0.0.1", primary_port_)});
  EXPECT_EQ(names.endpoint_count(), 2u);
  names.bind("svc/echo", ref_at("10.0.0.9", 7009));
  EXPECT_TRUE(primary_->resolve("svc/echo").has_value());
  EXPECT_EQ(names.resolve("svc/echo"), ref_at("10.0.0.9", 7009));
}

// ---- multi-endpoint bootstrap ----------------------------------------------------

TEST(BootstrapEndpoints, CommaListParsesInOrder) {
  const auto refs = bootstrap_refs_from_uri("10.0.0.1:7400,10.0.0.2:7401");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].home().tcp_host, "10.0.0.1");
  EXPECT_EQ(refs[0].home().tcp_port, 7400);
  EXPECT_EQ(refs[1].home().tcp_host, "10.0.0.2");
  EXPECT_EQ(refs[1].home().tcp_port, 7401);
}

TEST(BootstrapEndpoints, MultiRefFileRoundTrip) {
  const std::string path = temp_path("refs_multi") + ".ref";
  write_bootstrap_file(
      path, std::vector<orb::ObjectRef>{ref_at("10.0.0.1", 7400),
                                        ref_at("10.0.0.2", 7401)});
  const auto refs = read_bootstrap_refs(path);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].home().tcp_port, 7400);
  EXPECT_EQ(refs[1].home().tcp_port, 7401);
  // The single-ref reader still works against a container file.
  EXPECT_EQ(read_bootstrap_file(path).home().tcp_port, 7400);
  std::remove(path.c_str());
}

TEST(BootstrapEndpoints, UriMixesFilesAndHostPorts) {
  const std::string path = temp_path("refs_mixed") + ".ref";
  write_bootstrap_file(path, ref_at("10.0.0.1", 7400));
  const auto refs = bootstrap_refs_from_uri("file:" + path + ",10.0.0.2:7401");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].home().tcp_port, 7400);
  EXPECT_EQ(refs[1].home().tcp_port, 7401);
  std::remove(path.c_str());
}

TEST(BootstrapEndpoints, EmptyAndInvalidSpecsThrowTyped) {
  EXPECT_THROW(bootstrap_refs_from_uri(""), ObjectError);
  EXPECT_THROW(bootstrap_refs_from_uri("10.0.0.1:7400,"), ObjectError);
  EXPECT_THROW(bootstrap_refs_from_uri("no-port-here"), ObjectError);
  EXPECT_THROW(bootstrap_refs_from_uri("host:0"), ObjectError);
}

TEST(BootstrapEndpoints, ReaderOutwaitsRenameRace) {
  const std::string path = temp_path("refs_race") + ".ref";
  std::remove(path.c_str());
  // A daemon mid-startup publishes the file a beat after the reader
  // starts; the bounded retry must bridge that window.
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));  // ohpx-lint: allow-wall-clock (models the daemon publishing the ref file late)
    write_bootstrap_file(path, ref_at("10.0.0.1", 7400));
  });
  const auto refs = read_bootstrap_refs(path);
  writer.join();
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].home().tcp_port, 7400);
  std::remove(path.c_str());
}

TEST(BootstrapEndpoints, MissingFileThrowsAfterBoundedRetry) {
  EXPECT_THROW(read_bootstrap_refs(temp_path("refs_nowhere") + ".ref"),
               ObjectError);
}

// ---- seeded convergence sweep ----------------------------------------------------

// Drives a random mutation mix against a primary on a ManualClock, syncs
// the standby at quiescent points, and asserts the replicated namespace is
// *identical* — same names, same live replica sets in the same order, same
// entry versions.  Catches every divergence class at once: missed deltas,
// version skew, lease-remaining drift, standby-side version bumps.  The
// primary also journals, and after every operation a fresh servant
// replaying that journal must hold the primary's durable state.
class ReplicationConvergence : public ::testing::TestWithParam<std::uint64_t> {
};

/// A fresh servant replaying `path` holds `primary`'s durable state: each
/// known name's version and its permanent replicas, in order.
void expect_replay_holds_durable_state(const NameServiceServant& primary,
                                       const std::string& path,
                                       const std::string& where) {
  NameServiceServant replayed;
  replay(replayed, path);
  const auto want = primary.journal_snapshot();
  const auto got = replayed.journal_snapshot();
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(where + " name " + want[i].name);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].version, want[i].version);
    ASSERT_EQ(got[i].replicas.size(), want[i].replicas.size())
        << "the journal and the primary disagree on the permanent replicas";
    for (std::size_t r = 0; r < want[i].replicas.size(); ++r) {
      EXPECT_EQ(got[i].replicas[r].replica_id, want[i].replicas[r].replica_id);
      EXPECT_EQ(got[i].replicas[r].ref, want[i].replicas[r].ref);
    }
  }
}

TEST_P(ReplicationConvergence, StandbyConvergesAtQuiescentPoints) {
  resilience::ScopedManualClock clock;
  Xoshiro256 rng(GetParam());

  const std::string journal_path =
      temp_path("journal_sweep_" + std::to_string(GetParam()));
  std::remove(journal_path.c_str());
  NameServiceServant primary;
  primary.attach_journal(std::make_shared<Journal>(journal_path));
  NameServiceServant standby;
  standby.set_role(NameServiceServant::Role::standby);
  std::uint64_t last_seq = 0;

  const std::vector<std::string> names = {"svc/a", "svc/b", "svc/c", "svc/d",
                                          "svc/e"};
  const auto random_name = [&] { return names[rng.next() % names.size()]; };
  const auto random_ref = [&] {
    return ref_at("10.0.0." + std::to_string(1 + rng.next() % 8),
                  static_cast<std::uint16_t>(7000 + rng.next() % 16));
  };
  // Every bind_replica registration, leased or permanent.
  std::vector<std::pair<std::string, std::uint64_t>> registrations;

  constexpr int kOps = 256;
  constexpr int kQuiescentEvery = 32;
  for (int op = 0; op < kOps; ++op) {
    const auto pick = rng.next() % 100;
    if (pick < 30) {
      const std::string name = random_name();
      registrations.emplace_back(
          name, primary.bind_replica(name, random_ref(),
                                     milliseconds(200 + rng.next() % 800)));
    } else if (pick < 42) {
      const std::string name = random_name();
      registrations.emplace_back(
          name, primary.bind_replica(name, random_ref(), milliseconds(0)));
    } else if (pick < 52) {
      primary.bind(random_name(), random_ref(), /*rebind=*/true);
    } else if (pick < 62) {
      primary.unbind(random_name());
    } else if (pick < 74 && !registrations.empty()) {
      const auto& [name, id] = registrations[rng.next() % registrations.size()];
      // A zero TTL renews nothing, as a heartbeat on a permanent one does.
      primary.heartbeat(name, id,
                        milliseconds(rng.next() % 8 == 0
                                         ? 0
                                         : 200 + rng.next() % 800));
    } else if (pick < 84 && !registrations.empty()) {
      const auto index = rng.next() % registrations.size();
      primary.unbind_replica(registrations[index].first,
                             registrations[index].second);
      registrations.erase(registrations.begin() +
                          static_cast<std::ptrdiff_t>(index));
    } else if (pick < 90) {
      primary.report_dead(random_name(), random_ref());
    } else {
      clock.clock().advance(std::chrono::milliseconds(1 + rng.next() % 300));
    }

    ASSERT_NO_FATAL_FAILURE(expect_replay_holds_durable_state(
        primary, journal_path,
        "seed " + std::to_string(GetParam()) + " op " + std::to_string(op)));
    if ((op + 1) % kQuiescentEvery != 0) continue;

    // Quiescent point: sweep (so expiry bumps land before the diff), sync
    // the standby, then demand equality.
    primary.sweep_expired();
    auto [seq, updates] = primary.fetch_updates(last_seq);
    for (const auto& snapshot : updates) standby.apply_update(snapshot);
    last_seq = seq;

    for (const auto& name : names) {
      EXPECT_EQ(standby.version_of(name), primary.version_of(name))
          << "seed " << GetParam() << " op " << op << " name " << name;
      const auto [primary_version, primary_live] = primary.resolve_all(name);
      const auto [standby_version, standby_live] = standby.resolve_all(name);
      EXPECT_EQ(standby_version, primary_version);
      ASSERT_EQ(standby_live.size(), primary_live.size())
          << "seed " << GetParam() << " op " << op << " name " << name;
      for (std::size_t i = 0; i < primary_live.size(); ++i) {
        EXPECT_EQ(standby_live[i], primary_live[i]);
      }
    }
  }
  std::remove(journal_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationConvergence,
                         ::testing::Values(1u, 2u, 17u, 99u, 1234u, 0xfeedu));

}  // namespace
}  // namespace ohpx::naming
