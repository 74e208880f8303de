// Unit + integration tests for the naming service: local directory
// semantics, remote access through the ORB, capability-bearing references
// resolved by name, and bootstrap across contexts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/naming/bootstrap.hpp"
#include "ohpx/naming/failover.hpp"
#include "ohpx/naming/name_client.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/counter.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx::naming {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;

class NamingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    m_server_ = world_.add_machine("server", lan);
    m_client_ = world_.add_machine("client", lan);
    server_ctx_ = &world_.create_context(m_server_);
    client_ctx_ = &world_.create_context(m_client_);
    host_ = std::make_unique<NameServiceHost>(*server_ctx_);
  }

  orb::ObjectRef make_echo_ref() {
    return orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
        .build();
  }

  runtime::World world_;
  netsim::MachineId m_server_{}, m_client_{};
  orb::Context* server_ctx_ = nullptr;
  orb::Context* client_ctx_ = nullptr;
  std::unique_ptr<NameServiceHost> host_;
};

// ---- local API ------------------------------------------------------------------

TEST_F(NamingFixture, LocalBindResolveUnbind) {
  auto& service = host_->service();
  const auto ref = make_echo_ref();

  service.bind("svc/echo", ref);
  EXPECT_EQ(service.size(), 1u);
  const auto resolved = service.resolve("svc/echo");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, ref);

  EXPECT_TRUE(service.unbind("svc/echo"));
  EXPECT_FALSE(service.unbind("svc/echo"));
  EXPECT_FALSE(service.resolve("svc/echo").has_value());
}

TEST_F(NamingFixture, DuplicateBindNeedsRebindFlag) {
  auto& service = host_->service();
  const auto first = make_echo_ref();
  const auto second = make_echo_ref();
  service.bind("svc/echo", first);
  EXPECT_THROW(service.bind("svc/echo", second), ObjectError);
  service.bind("svc/echo", second, /*rebind=*/true);
  EXPECT_EQ(service.resolve("svc/echo")->object_id(), second.object_id());
}

TEST_F(NamingFixture, InvalidRefRejected) {
  EXPECT_THROW(host_->service().bind("bad", orb::ObjectRef{}), ObjectError);
}

TEST_F(NamingFixture, ListByPrefix) {
  auto& service = host_->service();
  service.bind("svc/echo", make_echo_ref());
  service.bind("svc/weather", make_echo_ref());
  service.bind("admin/console", make_echo_ref());

  EXPECT_EQ(service.list("svc/").size(), 2u);
  EXPECT_EQ(service.list("admin/").size(), 1u);
  EXPECT_EQ(service.list("").size(), 3u);
  EXPECT_TRUE(service.list("nothing/").empty());
}

// ---- remote access ----------------------------------------------------------------

TEST_F(NamingFixture, RemoteBindAndResolve) {
  NameServiceStub names(*client_ctx_, host_->ref());

  const auto ref = make_echo_ref();
  names.bind("remote/echo", ref);
  EXPECT_EQ(host_->service().size(), 1u);  // visible server-side

  const orb::ObjectRef resolved = names.resolve("remote/echo");
  EXPECT_EQ(resolved, ref);

  // The resolved reference is immediately usable.
  EchoPointer gp(*client_ctx_, resolved);
  EXPECT_EQ(gp->reverse("name"), "eman");
}

TEST_F(NamingFixture, RemoteResolveMissingThrowsTyped) {
  NameServiceStub names(*client_ctx_, host_->ref());
  try {
    names.resolve("missing");
    FAIL();
  } catch (const ObjectError& e) {
    EXPECT_EQ(e.code(), ErrorCode::object_not_found);
  }
}

TEST_F(NamingFixture, RemoteListAndUnbind) {
  NameServiceStub names(*client_ctx_, host_->ref());
  names.bind("a/1", make_echo_ref());
  names.bind("a/2", make_echo_ref());
  EXPECT_EQ(names.list("a/").size(), 2u);
  EXPECT_TRUE(names.unbind("a/1"));
  EXPECT_FALSE(names.unbind("a/1"));
  EXPECT_EQ(names.list("a/").size(), 1u);
}

TEST_F(NamingFixture, ResolvedReferenceCarriesCapabilities) {
  // The server publishes a metered reference under a name; a client that
  // resolves it inherits the quota policy.
  auto quota = std::make_shared<cap::QuotaCapability>(2);
  auto metered = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                     .glue({quota})
                     .build();
  host_->service().bind("metered/echo", metered);

  NameServiceStub names(*client_ctx_, host_->ref());
  EchoPointer gp(*client_ctx_, names.resolve("metered/echo"));
  gp->ping();
  gp->ping();
  EXPECT_THROW(gp->ping(), CapabilityDenied);
}

TEST_F(NamingFixture, BootstrapRefSerializable) {
  // The host's own reference travels as bytes, like any other OR.
  const Bytes raw = host_->ref().to_bytes();
  NamePointer names = NamePointer::from_bytes(*client_ctx_, raw);
  names->bind("boot/echo", make_echo_ref());
  EXPECT_EQ(host_->service().list("boot/").size(), 1u);
}

// ---- replica sets + entry versions ----------------------------------------

TEST_F(NamingFixture, ReplicaSetResolvesInRegistrationOrder) {
  auto& service = host_->service();
  const auto first = make_echo_ref();
  const auto second = make_echo_ref();
  service.bind_replica("svc/echo", first, std::chrono::milliseconds(0));
  service.bind_replica("svc/echo", second, std::chrono::milliseconds(0));

  EXPECT_EQ(service.size(), 1u);  // one name, two replicas
  EXPECT_EQ(service.resolve("svc/echo")->object_id(), first.object_id());
  const auto [version, all] = service.resolve_all("svc/echo");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].object_id(), first.object_id());
  EXPECT_EQ(all[1].object_id(), second.object_id());
  EXPECT_EQ(version, service.version_of("svc/echo"));
}

TEST_F(NamingFixture, EveryMutationBumpsTheEntryVersion) {
  auto& service = host_->service();
  EXPECT_EQ(service.version_of("v/x"), 0u);

  const auto a = make_echo_ref();
  const auto b = make_echo_ref();
  const std::uint64_t id_a =
      service.bind_replica("v/x", a, std::chrono::milliseconds(0));
  const std::uint64_t v1 = service.version_of("v/x");
  EXPECT_GT(v1, 0u);

  service.bind_replica("v/x", b, std::chrono::milliseconds(0));
  const std::uint64_t v2 = service.version_of("v/x");
  EXPECT_GT(v2, v1);

  EXPECT_TRUE(service.unbind_replica("v/x", id_a));
  const std::uint64_t v3 = service.version_of("v/x");
  EXPECT_GT(v3, v2);

  EXPECT_EQ(service.report_dead("v/x", b), 1u);
  const std::uint64_t v4 = service.version_of("v/x");
  EXPECT_GT(v4, v3);

  // The version floor survives the entry's disappearance: a future
  // re-bind can never reuse a version a stale cache may still hold.
  EXPECT_FALSE(service.resolve("v/x").has_value());
  service.bind("v/x", a);
  EXPECT_GT(service.version_of("v/x"), v4);
}

TEST_F(NamingFixture, ExpiredLeaseDropsReplica) {
  auto& service = host_->service();
  service.bind_replica("lease/echo", make_echo_ref(),
                       std::chrono::milliseconds(30));
  EXPECT_TRUE(service.resolve("lease/echo").has_value());

  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // ohpx-lint: allow-wall-clock (lease ttl is wall time)
  EXPECT_FALSE(service.resolve("lease/echo").has_value());
  EXPECT_EQ(service.size(), 0u);
}

TEST_F(NamingFixture, SweepPurgesExpiredLeases) {
  auto& service = host_->service();
  service.bind_replica("s/1", make_echo_ref(), std::chrono::milliseconds(30));
  service.bind_replica("s/2", make_echo_ref(), std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // ohpx-lint: allow-wall-clock (lease ttl is wall time)
  EXPECT_EQ(service.sweep_expired(), 1u);
  EXPECT_EQ(service.sweep_expired(), 0u);  // idempotent
  EXPECT_FALSE(service.resolve("s/1").has_value());
  EXPECT_TRUE(service.resolve("s/2").has_value());
}

// Calls the directory the way a peer's request does: the arguments
// marshalled, then NameServiceServant::dispatch.
template <typename Ret, typename... Args>
Ret call_as_peer(NameServiceServant& service, std::uint32_t method,
                 const Args&... args) {
  wire::Buffer request;
  wire::Encoder enc(request);
  wire::serialize_all(enc, args...);
  wire::Decoder in(request.view());
  wire::Buffer reply;
  wire::Encoder out(reply);
  service.dispatch(method, in, out);
  return wire::decode_value<Ret>(reply.view());
}

// Permanent replicas of `name`: what the journal keeps of it.
std::size_t durable_replicas(const NameServiceServant& service,
                             const std::string& name) {
  for (const NameSnapshot& snap : service.journal_snapshot()) {
    if (snap.name == name) return snap.replicas.size();
  }
  return 0;
}

TEST_F(NamingFixture, PeerTtlPastAYearLeasesInsteadOfWrapping) {
  resilience::ScopedManualClock scoped;
  auto& service = host_->service();
  const Bytes raw = make_echo_ref().to_bytes();
  const std::uint64_t huge[] = {std::uint64_t{1} << 63, ~std::uint64_t{0}};
  for (const std::uint64_t ttl_ms : huge) {
    SCOPED_TRACE(ttl_ms);
    const std::string name = "ttl/" + std::to_string(ttl_ms);
    call_as_peer<std::uint64_t>(service, NameServiceServant::kBindReplica,
                                name, raw, ttl_ms);
    EXPECT_EQ(durable_replicas(service, name), 0u)
        << "a lease clamped to a year, not a permanent registration";
    EXPECT_TRUE(service.resolve(name).has_value());
  }
  call_as_peer<std::uint64_t>(service, NameServiceServant::kBindReplica,
                              std::string("ttl/0"), raw, std::uint64_t{0});
  EXPECT_EQ(durable_replicas(service, "ttl/0"), 1u) << "zero is permanent";

  // A heartbeat renews a one-second lease for a year, not for nothing.
  const std::uint64_t id = call_as_peer<std::uint64_t>(
      service, NameServiceServant::kBindReplica, std::string("ttl/hb"), raw,
      std::uint64_t{1000});
  EXPECT_TRUE(call_as_peer<bool>(service, NameServiceServant::kHeartbeat,
                                 std::string("ttl/hb"), id, huge[0]));
  scoped.clock().advance(std::chrono::seconds(2));
  EXPECT_TRUE(service.resolve("ttl/hb").has_value());
  EXPECT_EQ(durable_replicas(service, "ttl/hb"), 0u);
}

TEST_F(NamingFixture, HeartbeatRenewsAndExpiredRegistrationRefuses) {
  auto& service = host_->service();
  const std::uint64_t id = service.bind_replica(
      "hb/echo", make_echo_ref(), std::chrono::milliseconds(80));
  // Renewals across several ttl fractions keep the replica alive.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));  // ohpx-lint: allow-wall-clock (lease ttl is wall time)
    EXPECT_TRUE(service.heartbeat("hb/echo", id, std::chrono::milliseconds(80)));
  }
  EXPECT_TRUE(service.resolve("hb/echo").has_value());
  // Once lapsed, the heartbeat is refused — the server must re-register.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // ohpx-lint: allow-wall-clock (lease ttl is wall time)
  EXPECT_FALSE(
      service.heartbeat("hb/echo", id, std::chrono::milliseconds(80)));
  EXPECT_FALSE(service.resolve("hb/echo").has_value());
}

TEST_F(NamingFixture, ReportDeadRemovesMatchingReplicaImmediately) {
  auto& service = host_->service();
  const auto dead = make_echo_ref();
  const auto live = make_echo_ref();
  service.bind_replica("rd/echo", dead, std::chrono::milliseconds(0));
  service.bind_replica("rd/echo", live, std::chrono::milliseconds(0));

  EXPECT_EQ(service.report_dead("rd/echo", dead), 1u);
  EXPECT_EQ(service.resolve("rd/echo")->object_id(), live.object_id());
  EXPECT_EQ(service.report_dead("rd/echo", dead), 0u);
}

TEST_F(NamingFixture, RemoteReplicaLifecycle) {
  NameServiceStub names(*client_ctx_, host_->ref());
  const auto a = make_echo_ref();
  const auto b = make_echo_ref();
  const std::uint64_t id_a =
      names.bind_replica("r/echo", a, std::chrono::milliseconds(0));
  const std::uint64_t id_b =
      names.bind_replica("r/echo", b, std::chrono::milliseconds(0));

  auto [version, all] = names.resolve_all("r/echo");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_GT(version, 0u);

  const auto [v2, ref] = names.resolve_versioned("r/echo");
  EXPECT_EQ(v2, version);
  EXPECT_EQ(ref.object_id(), a.object_id());

  EXPECT_TRUE(names.heartbeat("r/echo", id_a, std::chrono::milliseconds(0)));
  EXPECT_EQ(names.report_dead("r/echo", a), 1u);
  EXPECT_TRUE(names.unbind_replica("r/echo", id_b));
  EXPECT_TRUE(names.resolve_all("r/echo").second.empty());
}

// ---- NameClient cache (resolve caching regression) -------------------------

TEST_F(NamingFixture, NameClientCachesResolves) {
  NameClient names(*client_ctx_, host_->ref());
  const auto ref = make_echo_ref();
  names.bind("c/echo", ref);

  EXPECT_FALSE(names.cached_version("c/echo").has_value());
  const auto first = names.resolve("c/echo");
  EXPECT_EQ(first.object_id(), ref.object_id());
  const auto cached_version = names.cached_version("c/echo");
  ASSERT_TRUE(cached_version.has_value());
  EXPECT_EQ(*cached_version, host_->service().version_of("c/echo"));

  // A second resolve is served from memory: rebinding behind the client's
  // back is *not* observed until invalidation — that staleness is the
  // regression this suite pins down.
  const auto replacement = make_echo_ref();
  host_->service().bind("c/echo", replacement, /*rebind=*/true);
  EXPECT_EQ(names.resolve("c/echo").object_id(), ref.object_id());

  names.invalidate("c/echo");
  EXPECT_FALSE(names.cached_version("c/echo").has_value());
  EXPECT_EQ(names.resolve("c/echo").object_id(), replacement.object_id());
  EXPECT_GT(*names.cached_version("c/echo"), *cached_version);
}

TEST_F(NamingFixture, NameClientWriteThroughInvalidatesItsOwnCache) {
  NameClient names(*client_ctx_, host_->ref());
  const auto ref = make_echo_ref();
  names.bind("w/echo", ref);
  names.resolve("w/echo");
  ASSERT_TRUE(names.cached_version("w/echo").has_value());

  const auto replacement = make_echo_ref();
  names.bind("w/echo", replacement, /*rebind=*/true);
  // The client's own mutation dropped its cache entry, so the fresh
  // binding is visible immediately.
  EXPECT_EQ(names.resolve("w/echo").object_id(), replacement.object_id());
}

TEST_F(NamingFixture, NameClientResolveAllIsNeverCached) {
  NameClient names(*client_ctx_, host_->ref());
  names.bind_replica("ra/echo", make_echo_ref(), std::chrono::milliseconds(0));
  EXPECT_EQ(names.resolve_all("ra/echo").second.size(), 1u);
  names.bind_replica("ra/echo", make_echo_ref(), std::chrono::milliseconds(0));
  EXPECT_EQ(names.resolve_all("ra/echo").second.size(), 2u);
}

// ---- bootstrap URIs --------------------------------------------------------

TEST(NamingBootstrap, HostPortUriSynthesizesWellKnownRef) {
  const auto ref = bootstrap_from_uri("10.1.2.3:7400");
  EXPECT_EQ(ref.object_id(), kWellKnownNameServiceId);
  EXPECT_EQ(ref.home().tcp_host, "10.1.2.3");
  EXPECT_EQ(ref.home().tcp_port, 7400);
  ASSERT_EQ(ref.table().size(), 1u);
  EXPECT_EQ(ref.table().at(0).name, "tcp");
}

TEST(NamingBootstrap, FileRoundTrip) {
  const auto ref = make_bootstrap_ref("127.0.0.1", 7411);
  const std::string path =
      ::testing::TempDir() + "ohpx_bootstrap_roundtrip.ref";
  write_bootstrap_file(path, ref);
  EXPECT_EQ(read_bootstrap_file(path), ref);
  EXPECT_EQ(bootstrap_from_uri(path), ref);          // '/' ⇒ file form
  EXPECT_EQ(bootstrap_from_uri("file:" + path), ref);
  std::remove(path.c_str());
}

TEST(NamingBootstrap, BadUrisThrowTyped) {
  EXPECT_THROW(bootstrap_from_uri("no-port-here"), ObjectError);
  EXPECT_THROW(bootstrap_from_uri("host:"), ObjectError);
  EXPECT_THROW(bootstrap_from_uri("host:notaport"), ObjectError);
  EXPECT_THROW(bootstrap_from_uri("host:99999"), ObjectError);
  EXPECT_THROW(read_bootstrap_file("/nonexistent/no.ref"), ObjectError);
  // A port is exactly its digits: trailing garbage, a blank, a sign or a
  // fraction is not port 7400.
  for (const char* uri :
       {"127.0.0.1:7400abc", "127.0.0.1: 7400", "127.0.0.1:+7400",
        "127.0.0.1:7400.9", "127.0.0.1:0", "127.0.0.1:7400,10.0.0.1:7401x"}) {
    try {
      (void)bootstrap_refs_from_uri(uri);
      ADD_FAILURE() << "accepted '" << uri << "'";
    } catch (const ObjectError& error) {
      EXPECT_EQ(error.code(), ErrorCode::bad_object_ref) << uri;
    }
  }
}

TEST(NamingBootstrap, DirectoryIsRefusedWithoutRetry) {
  // A missing or empty file is retried for ~110 ms, since a daemon may be
  // renaming it into place; a directory never turns into a file, so it is
  // refused before the first 20 ms backoff.
  const std::string dir = ::testing::TempDir();
  for (const std::string& uri : {"file:" + dir, dir}) {
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)bootstrap_refs_from_uri(uri);
      ADD_FAILURE() << "accepted '" << uri << "'";
    } catch (const ObjectError& error) {
      EXPECT_EQ(error.code(), ErrorCode::bad_object_ref) << uri;
      EXPECT_NE(std::string(error.what()).find("is a directory"),
                std::string::npos)
          << error.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(20))
        << "'" << uri << "' was retried";
  }
}

// ---- replica failover ------------------------------------------------------

/// A synthetic echo reference to a TCP coordinate nothing listens on
/// (connect refused).
orb::ObjectRef unreachable_echo(orb::ObjectId id) {
  proto::ServerAddress address;
  address.machine = netsim::kInvalidMachine;
  address.tcp_host = "127.0.0.1";
  address.tcp_port = 1;  // reserved port: nothing listens
  proto::ProtoTable table;
  table.add(proto::ProtocolEntry{"tcp", {}});
  return orb::ObjectRef(id, "Echo", address, table);
}

TEST_F(NamingFixture, ReplicaPointerFailsOverFromDeadReplica) {
  // First replica: unreachable.  Second: a live TCP-served echo.
  server_ctx_->enable_tcp();
  const orb::ObjectRef dead_ref = unreachable_echo(0x0dead0);

  const auto live_ref =
      orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
          .tcp()
          .build();

  auto& service = host_->service();
  service.bind_replica("fo/echo", dead_ref, std::chrono::milliseconds(0));
  service.bind_replica("fo/echo", live_ref, std::chrono::milliseconds(0));

  NameClient names(*client_ctx_, host_->ref());
  ReplicaPointer<scenario::EchoStub> echo(*client_ctx_, names, "fo/echo");
  auto& recorder = introspect::FlightRecorder::global();
  recorder.clear();

  // Bound to the dead replica first (registration order), the call fails
  // over transparently and the answer comes from the live one.
  EXPECT_EQ(echo.current_ref().object_id(), dead_ref.object_id());
  const std::string reply =
      echo.call([](scenario::EchoStub& stub) { return stub.reverse("ohpx"); });
  EXPECT_EQ(reply, "xpho");
  EXPECT_EQ(echo.failovers(), 1u);
  std::size_t failover_records = 0;
  for (const auto& record : recorder.snapshot()) {
    if (record.kind == introspect::EventKind::failover) ++failover_records;
  }
  EXPECT_EQ(failover_records, 1u) << "one rebind, one anomaly";
  EXPECT_EQ(echo.attempts(), 2u);  // attempts == calls + failover retries
  EXPECT_EQ(echo.current_ref().object_id(), live_ref.object_id());

  // The dead replica was reported: the directory no longer offers it.
  const auto [version, all] = service.resolve_all("fo/echo");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].object_id(), live_ref.object_id());

  // Subsequent calls go straight to the live replica.
  echo.call([](scenario::EchoStub& stub) { return stub.reverse("ab"); });
  EXPECT_EQ(echo.failovers(), 1u);
  EXPECT_EQ(echo.attempts(), 3u);
}

TEST_F(NamingFixture, ReplicaPointerExhaustionRethrowsTransportError) {
  host_->service().bind_replica("fx/echo", unreachable_echo(0x0dead1),
                                std::chrono::milliseconds(0));
  NameClient names(*client_ctx_, host_->ref());
  ReplicaPointer<scenario::EchoStub> echo(*client_ctx_, names, "fx/echo");
  EXPECT_THROW(
      echo.call([](scenario::EchoStub& stub) { return stub.ping(); }),
      TransportError);
}

TEST_F(NamingFixture, ReplicaPointerTriesEachReplicaOnce) {
  // Two dead replicas, and a directory that keeps listing them: a standby
  // refuses every dead report (not_primary, with no primary to name).
  auto& service = host_->service();
  service.bind_replica("sb/echo", unreachable_echo(0x0dead2),
                       std::chrono::milliseconds(0));
  service.bind_replica("sb/echo", unreachable_echo(0x0dead3),
                       std::chrono::milliseconds(0));
  service.set_role(NameServiceServant::Role::standby);

  NameClient names(*client_ctx_, host_->ref());
  ReplicaPointer<scenario::EchoStub> echo(*client_ctx_, names, "sb/echo");
  EXPECT_THROW(
      echo.call([](scenario::EchoStub& stub) { return stub.ping(); }),
      TransportError);
  EXPECT_EQ(echo.attempts(), 2u);
  EXPECT_EQ(echo.failovers(), 1u);
  EXPECT_EQ(service.resolve_all("sb/echo").second.size(), 2u);
}

// A servant whose own downstream call failed in the transport: the server
// replies with that TransportError's code.
class DownstreamFaultServant final : public orb::Servant {
 public:
  std::string_view type_name() const noexcept override {
    return EchoServant::kTypeName;
  }
  void dispatch(std::uint32_t, wire::Decoder&, wire::Encoder&) override {
    runs.fetch_add(1, std::memory_order_relaxed);
    throw TransportError(ErrorCode::transport_connect_failed,
                         "downstream replica unreachable");
  }
  std::atomic<int> runs{0};
};

TEST_F(NamingFixture, TransportCodedErrorReplyLeavesTheReplicaLive) {
  auto a = std::make_shared<DownstreamFaultServant>();
  auto b = std::make_shared<DownstreamFaultServant>();
  auto& service = host_->service();
  service.bind_replica("df/echo", orb::RefBuilder(*server_ctx_, a).build(),
                       std::chrono::milliseconds(0));
  service.bind_replica("df/echo", orb::RefBuilder(*server_ctx_, b).build(),
                       std::chrono::milliseconds(0));

  NameClient names(*client_ctx_, host_->ref());
  ReplicaPointer<scenario::EchoStub> echo(*client_ctx_, names, "df/echo");
  try {
    echo.call([](scenario::EchoStub& stub) { return stub.ping(); });
    FAIL() << "the servant's downstream fault must reach the caller";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_connect_failed);
  }
  // The reply arrived, so the client's channel works: no retry re-ran the
  // servant, no failover, and both live replicas stay registered.
  EXPECT_EQ(a->runs.load(), 1);
  EXPECT_EQ(b->runs.load(), 0);
  EXPECT_EQ(echo.failovers(), 0u);
  EXPECT_EQ(service.resolve_all("df/echo").second.size(), 2u);

  // An async call settles the same reply the same way.
  auto future = echo.stub().call_async<std::uint64_t>(EchoServant::kPing);
  EXPECT_THROW(future.get(), RemoteError);
  EXPECT_EQ(a->runs.load(), 2);
}

}  // namespace
}  // namespace ohpx::naming
