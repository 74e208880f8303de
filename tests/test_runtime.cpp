// Unit tests for the runtime layer: World composition, migration semantics
// (shared and snapshot/restore), glue-binding transfer, the
// high-water-mark load balancer, and ProcessHostConfig's one parser behind
// config files and command-line flags.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/balancer.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/process_host.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx::runtime {
namespace {

using scenario::CounterPointer;
using scenario::CounterServant;
using scenario::EchoPointer;
using scenario::EchoServant;

class RuntimeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    lan_ = world_.add_lan("lan");
    m0_ = world_.add_machine("m0", lan_);
    m1_ = world_.add_machine("m1", lan_);
    ctx0_ = &world_.create_context(m0_);
    ctx1_ = &world_.create_context(m1_);
  }

  World world_;
  netsim::LanId lan_{};
  netsim::MachineId m0_{}, m1_{};
  orb::Context* ctx0_ = nullptr;
  orb::Context* ctx1_ = nullptr;
};

// ---- world --------------------------------------------------------------------

TEST_F(RuntimeFixture, WorldTracksContexts) {
  EXPECT_EQ(world_.context_count(), 2u);
  EXPECT_EQ(&world_.context(ctx0_->id()), ctx0_);
  EXPECT_THROW(world_.context(0xffff), ObjectError);

  const auto on_m0 = world_.contexts_on(m0_);
  ASSERT_EQ(on_m0.size(), 1u);
  EXPECT_EQ(on_m0[0], ctx0_);
}

TEST_F(RuntimeFixture, FindContextOfObject) {
  const orb::ObjectId id = ctx1_->activate(std::make_shared<EchoServant>());
  EXPECT_EQ(world_.find_context_of(id), ctx1_);
  EXPECT_EQ(world_.find_context_of(999999), nullptr);
}

TEST_F(RuntimeFixture, FindContextOfProbesTheContextIndex) {
  // Many contexts, object in the very last one: the id-indexed probe must
  // find it regardless of depth (bench_naming's Name_FindContext arms gate
  // the O(1)-ish timing claim; this pins correctness at depth).
  std::vector<orb::Context*> extra;
  for (int i = 0; i < 64; ++i) {
    extra.push_back(&world_.create_context(m1_));
  }
  const orb::ObjectId id =
      extra.back()->activate(std::make_shared<EchoServant>());
  EXPECT_EQ(world_.find_context_of(id), extra.back());
  EXPECT_EQ(world_.find_context_of(id + 999999), nullptr);
}

// ---- migration -----------------------------------------------------------------

TEST_F(RuntimeFixture, MigrateSharedMovesServantAndLocation) {
  auto servant = std::make_shared<CounterServant>();
  const orb::ObjectId id = ctx0_->activate(servant);
  servant->set_value(10);

  migrate_shared(id, *ctx0_, *ctx1_);

  EXPECT_FALSE(ctx0_->hosts(id));
  EXPECT_TRUE(ctx1_->hosts(id));
  EXPECT_EQ(ctx1_->find_servant(id), servant);  // same instance
  const auto address = world_.location().resolve(id);
  ASSERT_TRUE(address.has_value());
  EXPECT_EQ(address->context_id, ctx1_->id());
  EXPECT_GE(address->epoch, 2u);  // republished
}

TEST_F(RuntimeFixture, MigrateUnknownObjectFails) {
  try {
    migrate_shared(31337, *ctx0_, *ctx1_);
    FAIL();
  } catch (const ObjectError& e) {
    EXPECT_EQ(e.code(), ErrorCode::object_not_found);
  }
}

TEST_F(RuntimeFixture, NonMigratableServantRefused) {
  class PinnedServant final : public orb::Servant {
   public:
    std::string_view type_name() const noexcept override { return "Pinned"; }
    void dispatch(std::uint32_t method_id, wire::Decoder&,
                  wire::Encoder&) override {
      orb::unknown_method("Pinned", method_id);
    }
  };
  const orb::ObjectId id = ctx0_->activate(std::make_shared<PinnedServant>());
  try {
    migrate_shared(id, *ctx0_, *ctx1_);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::not_migratable);
  }
  EXPECT_TRUE(ctx0_->hosts(id));  // unchanged on failure
}

TEST_F(RuntimeFixture, MigrateCopyNeedsFactory) {
  // A migratable type with no registered factory cannot migrate by copy.
  class OrphanServant final : public orb::Servant {
   public:
    std::string_view type_name() const noexcept override { return "Orphan"; }
    void dispatch(std::uint32_t method_id, wire::Decoder&,
                  wire::Encoder&) override {
      orb::unknown_method("Orphan", method_id);
    }
    bool migratable() const noexcept override { return true; }
    Bytes snapshot() const override { return {}; }
    void restore(BytesView) override {}
  };
  const orb::ObjectId id = ctx0_->activate(std::make_shared<OrphanServant>());
  EXPECT_THROW(migrate_copy(id, *ctx0_, *ctx1_), Error);
}

TEST_F(RuntimeFixture, MigrateCopyTransfersState) {
  ServantTypeRegistry::instance().register_type<CounterServant>();
  auto original = std::make_shared<CounterServant>();
  original->set_value(77);
  const orb::ObjectId id = ctx0_->activate(original);

  migrate_copy(id, *ctx0_, *ctx1_);

  auto moved = std::dynamic_pointer_cast<CounterServant>(ctx1_->find_servant(id));
  ASSERT_NE(moved, nullptr);
  EXPECT_NE(moved, original);  // distinct instance
  EXPECT_EQ(moved->value(), 77);
}

TEST_F(RuntimeFixture, GlueBindingsFollowTheObject) {
  auto servant = std::make_shared<EchoServant>();
  auto quota = std::make_shared<cap::QuotaCapability>(10);
  const orb::ObjectRef ref =
      orb::RefBuilder(*ctx0_, servant).glue({quota}).build();
  const orb::ObjectId id = ref.object_id();

  // Burn 4 calls so the quota has visible state to carry.
  orb::Context& client = world_.create_context(m1_);
  EchoPointer gp(client, ref);
  for (int i = 0; i < 4; ++i) gp->ping();
  EXPECT_EQ(quota->used(), 4u);

  migrate_shared(id, *ctx0_, *ctx1_);

  EXPECT_TRUE(ctx0_->glue_bindings_of(id).empty());
  const auto bindings = ctx1_->glue_bindings_of(id);
  ASSERT_EQ(bindings.size(), 1u);
  // The transferred chain preserved remaining quota via descriptors.
  const auto descriptors = bindings[0]->chain.descriptors();
  ASSERT_EQ(descriptors.size(), 1u);
  EXPECT_EQ(descriptors[0].params.at("max_calls"), "6");

  // And calls keep flowing through the new home.
  gp->ping();
  EXPECT_TRUE(ctx1_->hosts(id));
}

TEST_F(RuntimeFixture, ServantTypeRegistryBasics) {
  auto& registry = ServantTypeRegistry::instance();
  registry.register_type<CounterServant>();
  EXPECT_TRUE(registry.contains("Counter"));
  EXPECT_FALSE(registry.contains("NoSuchType"));
  const auto servant = registry.create("Counter");
  EXPECT_EQ(servant->type_name(), "Counter");
  EXPECT_THROW(registry.create("NoSuchType"), Error);
}

// ---- load balancer ----------------------------------------------------------------

class BalancerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    lan_ = world_.add_lan("lan");
    hot_ = world_.add_machine("hot", lan_);
    cool_ = world_.add_machine("cool", lan_);
    hot_ctx_ = &world_.create_context(hot_);
    cool_ctx_ = &world_.create_context(cool_);
  }

  orb::ObjectId spawn_on_hot() {
    return hot_ctx_->activate(std::make_shared<CounterServant>());
  }

  World world_;
  netsim::LanId lan_{};
  netsim::MachineId hot_{}, cool_{};
  orb::Context* hot_ctx_ = nullptr;
  orb::Context* cool_ctx_ = nullptr;
};

TEST_F(BalancerFixture, NoActionBelowHighWater) {
  LoadBalancer balancer(world_, {.high_water = 0.75, .target_water = 0.5});
  balancer.track(spawn_on_hot(), 0.3);
  world_.topology().set_load(hot_, 0.5);
  EXPECT_TRUE(balancer.rebalance_once().empty());
}

TEST_F(BalancerFixture, DrainsToTargetWater) {
  LoadBalancer balancer(world_, {.high_water = 0.75, .target_water = 0.5});
  const auto a = spawn_on_hot();
  const auto b = spawn_on_hot();
  const auto c = spawn_on_hot();
  balancer.track(a, 0.3);
  balancer.track(b, 0.2);
  balancer.track(c, 0.1);
  world_.topology().set_load(hot_, 0.9);
  world_.topology().set_load(cool_, 0.0);

  const auto events = balancer.rebalance_once();
  // 0.9 → (move 0.3) 0.6 → (move 0.2) 0.4 ≤ target; heaviest moved first.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].object_id, a);
  EXPECT_EQ(events[1].object_id, b);
  EXPECT_NEAR(world_.topology().load(hot_), 0.4, 1e-9);
  EXPECT_NEAR(world_.topology().load(cool_), 0.5, 1e-9);
  EXPECT_EQ(world_.find_context_of(a)->machine(), cool_);
  EXPECT_EQ(world_.find_context_of(c)->machine(), hot_);
}

TEST_F(BalancerFixture, RespectsMigrationCap) {
  LoadBalancer balancer(world_, {.high_water = 0.1,
                                 .target_water = 0.0,
                                 .max_migrations_per_round = 1});
  balancer.track(spawn_on_hot(), 0.05);
  balancer.track(spawn_on_hot(), 0.05);
  world_.topology().set_load(hot_, 0.5);
  EXPECT_EQ(balancer.rebalance_once().size(), 1u);
}

TEST_F(BalancerFixture, SkipsNonMigratableObjects) {
  class PinnedServant final : public orb::Servant {
   public:
    std::string_view type_name() const noexcept override { return "Pinned"; }
    void dispatch(std::uint32_t method_id, wire::Decoder&,
                  wire::Encoder&) override {
      orb::unknown_method("Pinned", method_id);
    }
  };
  LoadBalancer balancer(world_, {.high_water = 0.5, .target_water = 0.1});
  const auto pinned = hot_ctx_->activate(std::make_shared<PinnedServant>());
  balancer.track(pinned, 0.4);
  world_.topology().set_load(hot_, 0.9);
  EXPECT_TRUE(balancer.rebalance_once().empty());
  EXPECT_TRUE(hot_ctx_->hosts(pinned));
}

TEST_F(BalancerFixture, UntrackedObjectsIgnored) {
  LoadBalancer balancer(world_, {.high_water = 0.5, .target_water = 0.1});
  const auto id = spawn_on_hot();
  balancer.track(id, 0.4);
  balancer.untrack(id);
  world_.topology().set_load(hot_, 0.9);
  EXPECT_TRUE(balancer.rebalance_once().empty());
}

TEST_F(BalancerFixture, NoDestinationNoMigration) {
  // Both machines overloaded equally: least_loaded == source, stay put.
  LoadBalancer balancer(world_, {.high_water = 0.5, .target_water = 0.1});
  balancer.track(spawn_on_hot(), 0.4);
  world_.topology().set_load(hot_, 0.9);
  world_.topology().set_load(cool_, 0.95);
  EXPECT_TRUE(balancer.rebalance_once().empty());
}

TEST_F(BalancerFixture, CreatesContextOnEmptyDestination) {
  const auto fresh = world_.add_machine("fresh", lan_);
  LoadBalancer balancer(world_, {.high_water = 0.5, .target_water = 0.1});
  const auto id = spawn_on_hot();
  balancer.track(id, 0.4);
  world_.topology().set_load(hot_, 0.9);
  world_.topology().set_load(cool_, 0.8);
  world_.topology().set_load(fresh, 0.0);

  const auto events = balancer.rebalance_once();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].to_machine, fresh);
  ASSERT_EQ(world_.contexts_on(fresh).size(), 1u);
  EXPECT_TRUE(world_.contexts_on(fresh)[0]->hosts(id));
}

// ---- process-host config: one parser behind the file and the flags --------

using std::chrono::milliseconds;

std::string config_file(const std::string& stem, const std::string& text) {
  const std::string path = testing::TempDir() + "ohpx_" + stem + "_" +
                           std::to_string(::getpid()) + ".conf";
  std::ofstream(path, std::ios::trunc) << text;
  return path;
}

ProcessHostConfig from_flags(const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"ohpx-hostd"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return ProcessHostConfig::from_args(static_cast<int>(argv.size()),
                                      argv.data());
}

TEST(ProcessHostConfigParse, EveryKeyInAFile) {
  const std::string path = config_file(
      "every_key",
      "# one srv-a process\n\n"
      "machine = srv-a\n"
      "listen = 0.0.0.0:7410\n"
      "advertise = srv-a.cluster\n"
      "named = 10.0.0.5:7400,10.0.0.6:7400\n"
      "contexts = 3\n"
      "heartbeat_ms = 250\n"
      "ttl_ms = 1500\n");
  const auto config = ProcessHostConfig::from_file(path);
  EXPECT_EQ(config.machine_name, "srv-a");
  EXPECT_EQ(config.listen_host, "0.0.0.0");
  EXPECT_EQ(config.listen_port, 7410);
  EXPECT_EQ(config.advertise_host, "srv-a.cluster");
  EXPECT_EQ(config.named_uri, "10.0.0.5:7400,10.0.0.6:7400");
  EXPECT_EQ(config.contexts, 3u);
  EXPECT_EQ(config.heartbeat_interval, milliseconds(250));
  EXPECT_EQ(config.replica_ttl, milliseconds(1500));
  std::remove(path.c_str());
}

TEST(ProcessHostConfigParse, EveryFlag) {
  const auto config = from_flags(
      {"--machine", "srv-b", "--listen", ":7411", "--advertise", "srv-b.lan",
       "--named", "10.0.0.5:7400", "--contexts", "2", "--heartbeat-ms", "100",
       "--ttl-ms", "900"});
  EXPECT_EQ(config.machine_name, "srv-b");
  EXPECT_EQ(config.listen_host, "127.0.0.1") << "a bare :port keeps the host";
  EXPECT_EQ(config.listen_port, 7411);
  EXPECT_EQ(config.advertise_host, "srv-b.lan");
  EXPECT_EQ(config.named_uri, "10.0.0.5:7400");
  EXPECT_EQ(config.contexts, 2u);
  EXPECT_EQ(config.heartbeat_interval, milliseconds(100));
  EXPECT_EQ(config.replica_ttl, milliseconds(900));
  EXPECT_EQ(from_flags({"--listen", "127.0.0.1:0"}).listen_port, 0)
      << "port 0 asks for an ephemeral port";
}

TEST(ProcessHostConfigParse, LaterFlagsOverrideTheConfigFile) {
  const std::string path = config_file(
      "base", "machine = from-file\nheartbeat_ms = 700\nttl_ms = 5000\n");
  // The file replaces what came before it; what comes after wins.
  const auto config = from_flags({"--heartbeat-ms", "100", "--config", path,
                                   "--ttl-ms", "900"});
  EXPECT_EQ(config.machine_name, "from-file");
  EXPECT_EQ(config.heartbeat_interval, milliseconds(700));
  EXPECT_EQ(config.replica_ttl, milliseconds(900));
  std::remove(path.c_str());
}

TEST(ProcessHostConfigParse, RefusesUnknownKeysFlagsAndMissingValues) {
  for (const char* text : {"colour = blue\n", "machine srv-a\n"}) {
    const std::string path = config_file("unknown", text);
    EXPECT_THROW(ProcessHostConfig::from_file(path), ObjectError) << text;
    std::remove(path.c_str());
  }
  EXPECT_THROW(ProcessHostConfig::from_file(testing::TempDir() +
                                           "ohpx_no_such_config.conf"),
               ObjectError);
  EXPECT_THROW(from_flags({"--colour", "blue"}), ObjectError);
  EXPECT_THROW(from_flags({"machine", "srv-a"}), ObjectError);
  EXPECT_THROW(from_flags({"--machine"}), ObjectError);
  EXPECT_THROW(from_flags({"--machine", "srv-a", "--ttl-ms"}), ObjectError);
}

TEST(ProcessHostConfigParse, RefusesBadNumbersAndListenValues) {
  for (const char* bad : {"-5", "5s", "", " 5", "+5", "1e3",
                          "99999999999999999999"}) {
    EXPECT_THROW(from_flags({"--contexts", bad}), ObjectError)
        << "'" << bad << "'";
    EXPECT_THROW(from_flags({"--ttl-ms", bad}), ObjectError)
        << "'" << bad << "'";
  }
  const std::string path = config_file("garbage", "heartbeat_ms = 500ms\n");
  EXPECT_THROW(ProcessHostConfig::from_file(path), ObjectError);
  std::remove(path.c_str());
  for (const char* bad : {"7410", "host:65536", "host:-1", "host:", "host:x"}) {
    EXPECT_THROW(from_flags({"--listen", bad}), ObjectError) << bad;
  }
}

TEST(ProcessHostConfigParse, RefusesZeroHeartbeatAndTtl) {
  // Zero heartbeat_ms beats back to back; zero ttl_ms is no lease, so the
  // registration would be permanent and outlive the process.
  EXPECT_THROW(from_flags({"--heartbeat-ms", "0"}), ObjectError);
  EXPECT_THROW(from_flags({"--ttl-ms", "0"}), ObjectError);
  EXPECT_THROW(from_flags({"--contexts", "0"}), ObjectError);
  const std::string path = config_file("zero", "ttl_ms = 0\n");
  EXPECT_THROW(ProcessHostConfig::from_file(path), ObjectError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ohpx::runtime
