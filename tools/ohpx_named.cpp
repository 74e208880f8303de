// ohpx-named — the standalone name-service daemon (docs/deployment.md).
//
// Wraps a NameServiceServant behind the well-known bootstrap object id on
// a real TCP listener, sweeps expired replica leases periodically, and
// optionally writes its serialized bootstrap reference to a file so
// clients can bootstrap from either form:
//
//   ohpx-named --host 0.0.0.0 --port 7400 --advertise ns.cluster.local
//              --ref-file /var/run/ohpx/named.ref
//
// Replicated directory (docs/deployment.md, "Replicated directory"):
//
//   ohpx-named --port 7400 --journal /var/lib/ohpx/named.journal
//   ohpx-named --port 7401 --peer 127.0.0.1:7400 --journal standby.journal
//
// A primary binds its own bootstrap ref under the well-known `__primary`
// name on a heartbeat-renewed lease and serves the catch-up stream; a
// --peer daemon runs as a standby following that stream, refusing
// mutations with redirects, and promotes itself when the replicated
// `__primary` lease lapses.  --journal persists each name's version and
// permanent replicas across restarts: boot replays it through the same
// apply_update() a standby runs, then compacts it.  A journal file that
// is not OHPXJNL2 is refused (exit 1, file untouched).
//
// stdout protocol (consumed by scripts and the multiprocess tests): the
// first line is "READY <port> <uri>", flushed before serving begins, on
// every boot — a journal recovery is reported on a later line.  A
// standby that takes over prints "PROMOTED <port> <uri>".
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "ohpx/common/parse.hpp"
#include "ohpx/naming/bootstrap.hpp"
#include "ohpx/naming/journal.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/naming/replication.hpp"
#include "ohpx/ohpx.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string advertise;
  std::string ref_file;
  std::string peer;     // non-empty = start as a standby following this URI
  std::string journal;  // non-empty = persist permanent binds here
  long sweep_ms = 500;
  long sync_ms = 200;          // standby catch-up poll cadence
  long primary_ttl_ms = 2000;  // `__primary` lease TTL
  long run_ms = 0;             // 0 = until signalled
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--advertise H]\n"
               "          [--ref-file PATH] [--peer URI] [--journal PATH]\n"
               "          [--sweep-ms N] [--sync-ms N] [--primary-ttl-ms N]\n"
               "          [--run-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ohpx;

  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value is a strict parse_number() in [min, max]; a
    // malformed one is a usage error, like an unknown flag.
    const auto number = [&](std::uint64_t min, std::uint64_t max) {
      const char* text = value();
      return text ? parse_number(text, min, max) : std::nullopt;
    };
    const char* v = nullptr;
    std::optional<std::uint64_t> n;
    if (flag == "--host" && (v = value())) {
      opts.host = v;
    } else if (flag == "--port" && (n = number(0, 65535))) {
      opts.port = static_cast<std::uint16_t>(*n);  // 0: an ephemeral port
    } else if (flag == "--advertise" && (v = value())) {
      opts.advertise = v;
    } else if (flag == "--ref-file" && (v = value())) {
      opts.ref_file = v;
    } else if (flag == "--peer" && (v = value())) {
      opts.peer = v;
    } else if (flag == "--journal" && (v = value())) {
      opts.journal = v;
    } else if (flag == "--sweep-ms" && (n = number(1, kMaxMilliseconds))) {
      opts.sweep_ms = *n;
    } else if (flag == "--sync-ms" && (n = number(1, kMaxMilliseconds))) {
      opts.sync_ms = *n;
    } else if (flag == "--primary-ttl-ms" &&
               (n = number(1, kMaxMilliseconds))) {
      opts.primary_ttl_ms = *n;
    } else if (flag == "--run-ms" && (n = number(0, kMaxMilliseconds))) {
      opts.run_ms = *n;
    } else {
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  runtime::World world;
  const netsim::LanId lan = world.add_lan("named-lan");
  orb::Context& ctx = world.create_context(world.add_machine("named", lan));
  ctx.enable_tcp(opts.host, opts.port, opts.advertise);

  auto directory = std::make_shared<naming::NameServiceServant>();

  // Recover persisted state *before* serving, then compact the journal so
  // it holds one durable snapshot per name instead of the whole history.
  std::size_t recovered = 0;
  if (!opts.journal.empty()) {
    try {
      const auto records = naming::Journal::recover(opts.journal);
      for (const naming::NameSnapshot& record : records) {
        directory->apply_update(record);
      }
      recovered = records.size();
      naming::Journal::compact(opts.journal, directory->journal_snapshot());
      directory->attach_journal(
          std::make_shared<naming::Journal>(opts.journal));
    } catch (const Error& error) {
      std::fprintf(stderr, "ohpx-named: %s\n", error.what());
      return 1;
    }
  }

  ctx.activate_with_id(naming::kWellKnownNameServiceId, directory);

  const proto::ServerAddress address = ctx.current_address();
  const std::string uri =
      address.tcp_host + ":" + std::to_string(address.tcp_port);
  const orb::ObjectRef self_ref =
      naming::make_bootstrap_ref(address.tcp_host, address.tcp_port);
  if (!opts.ref_file.empty()) {
    naming::write_bootstrap_file(opts.ref_file, self_ref);
  }

  const auto primary_ttl = std::chrono::milliseconds(opts.primary_ttl_ms);
  const bool standby = !opts.peer.empty();
  std::unique_ptr<naming::Replicator> replicator;
  std::uint64_t primary_lease_id = 0;
  bool primary_duties = !standby;

  if (standby) {
    directory->set_role(naming::NameServiceServant::Role::standby);
    // A host:port peer doubles as the static redirect hint until the
    // replicated `__primary` binding arrives.
    if (opts.peer.find('/') == std::string::npos &&
        opts.peer.find(',') == std::string::npos &&
        opts.peer.find(':') != std::string::npos) {
      directory->set_primary_hint(opts.peer);
    }
    naming::ReplicatorConfig repl_config;
    repl_config.poll_interval = std::chrono::milliseconds(opts.sync_ms);
    repl_config.primary_ttl = primary_ttl;
    try {
      replicator = std::make_unique<naming::Replicator>(
          ctx, *directory, naming::bootstrap_from_uri(opts.peer), repl_config);
    } catch (const Error& error) {
      std::fprintf(stderr, "ohpx-named: --peer: %s\n", error.what());
      return usage(argv[0]);
    }
    replicator->start();
  } else {
    // The reigning primary holds the `__primary` seat under a lease its
    // own loop renews; a standby's replicated copy of that lease is the
    // promotion clock.
    primary_lease_id = directory->bind_replica(naming::kPrimaryName, self_ref,
                                               primary_ttl);
  }

  std::printf("READY %u %s\n", address.tcp_port, uri.c_str());
  std::printf("ohpx-named: directory %llx on %s (%s, sweep every %ld ms)\n",
              static_cast<unsigned long long>(naming::kWellKnownNameServiceId),
              uri.c_str(), standby ? "standby" : "primary", opts.sweep_ms);
  if (recovered > 0) {
    std::printf("ohpx-named: recovered %zu journal record(s), %zu name(s)\n",
                recovered, directory->size());
  }
  std::fflush(stdout);

  // Tick fast enough to renew the `__primary` lease well inside its TTL.
  const long tick_ms =
      std::min(opts.sweep_ms, std::max(opts.primary_ttl_ms / 3, 1L));
  const auto started = std::chrono::steady_clock::now();
  auto last_sweep = started;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(opts.sweep_ms)) {
      last_sweep = now;
      const std::size_t swept = directory->sweep_expired();
      if (swept > 0) {
        std::printf(
            "ohpx-named: swept %zu expired replica(s), %zu name(s) live\n",
            swept, directory->size());
        std::fflush(stdout);
      }
    }
    if (replicator && replicator->promoted()) {
      replicator.reset();  // the poll loop has already exited
      primary_duties = true;
      primary_lease_id = directory->bind_replica(naming::kPrimaryName,
                                                 self_ref, primary_ttl);
      std::printf("PROMOTED %u %s\n", address.tcp_port, uri.c_str());
      std::fflush(stdout);
    }
    if (primary_duties) {
      if (!directory->heartbeat(naming::kPrimaryName, primary_lease_id,
                                primary_ttl)) {
        primary_lease_id = directory->bind_replica(naming::kPrimaryName,
                                                   self_ref, primary_ttl);
      }
    }
    if (opts.run_ms > 0 &&
        now - started > std::chrono::milliseconds(opts.run_ms)) {
      break;
    }
  }
  std::printf("ohpx-named: shutting down\n");
  return 0;
}
