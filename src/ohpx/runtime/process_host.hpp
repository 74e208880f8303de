// ProcessHost: boots one or more contexts in a standalone OS process from
// a small config — the piece that lets a logical World span processes and
// machines (ROADMAP item: multi-process deployment).
//
// Each ProcessHost owns a private runtime::World (one machine named by the
// config), opens a real accepting TCP listener per context, and — when a
// name-service bootstrap URI is configured — keeps every advertise()d
// object registered at the ohpx-named daemon with lease heartbeats: bind
// as a replica, renew every `heartbeat_interval`, re-register automatically
// when the daemon restarts.  Clean shutdown withdraws the registrations.
//
//   ProcessHostConfig cfg;
//   cfg.machine_name = "srv-a";
//   cfg.listen_host = "0.0.0.0"; cfg.listen_port = 7410;
//   cfg.named_uri = "10.0.0.5:7400";
//   runtime::ProcessHost host(cfg);
//   auto ref = orb::RefBuilder(host.context(), servant).tcp().build();
//   host.advertise("svc/echo", ref);     // replica of svc/echo, kept alive
//
// tools/ohpx_hostd.cpp is the config-file/argv front end of this class.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/naming/name_client.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::runtime {

struct ProcessHostConfig {
  /// Topology name of this process's machine (and its LAN, "<name>-lan").
  std::string machine_name = "host";

  /// Listener coordinates for context 0; further contexts bind ephemeral
  /// ports on the same host.  Port 0 = ephemeral; host "0.0.0.0" = all
  /// interfaces.
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;

  /// Hostname minted into ORs (defaults to listen_host; required for
  /// wildcard binds that should advertise a routable name).
  std::string advertise_host;

  /// Bootstrap URI of the name service ("host:port" or a reference file;
  /// naming/bootstrap.hpp).  Empty = no directory, advertise() throws.
  std::string named_uri;

  /// Contexts to boot (each a listener of its own).
  std::size_t contexts = 1;

  /// Lease cadence: registrations carry `replica_ttl`, renewed every
  /// `heartbeat_interval`.  The gap between the two is the failover
  /// detection budget when a process dies without reporting.
  std::chrono::milliseconds heartbeat_interval{500};
  std::chrono::milliseconds replica_ttl{2000};

  /// Parses "key = value" lines (#-comments, blank lines ignored).  Keys:
  /// machine, listen (host:port), advertise, named, contexts,
  /// heartbeat_ms, ttl_ms.  Numbers are plain decimals; contexts,
  /// heartbeat_ms and ttl_ms are at least 1.  Throws
  /// ObjectError(bad_object_ref) on unreadable files, unknown keys and
  /// bad values.
  static ProcessHostConfig from_file(const std::string& path);

  /// Parses command-line flags, each a file key spelled --key with '-'
  /// for '_' (--machine, --listen host:port, --advertise, --named URI,
  /// --contexts N, --heartbeat-ms N, --ttl-ms N), through the same
  /// parser; --config FILE is the base later flags override.  Throws as
  /// from_file() does, and on a flag with no value.
  static ProcessHostConfig from_args(int argc, const char* const* argv);
};

class ProcessHost {
 public:
  explicit ProcessHost(ProcessHostConfig config);
  ~ProcessHost();

  ProcessHost(const ProcessHost&) = delete;
  ProcessHost& operator=(const ProcessHost&) = delete;

  World& world() noexcept { return world_; }
  const ProcessHostConfig& config() const noexcept { return config_; }

  std::size_t context_count() const noexcept { return contexts_.size(); }
  orb::Context& context(std::size_t index = 0) { return *contexts_.at(index); }

  /// The port context 0 actually bound (resolves ephemeral requests).
  std::uint16_t port() const;

  /// The directory client; throws ObjectError(bad_object_ref) when the
  /// config named no directory.
  naming::NameClient& names();

  /// Registers `ref` as a replica of `name` at the directory and keeps
  /// the registration alive (heartbeat thread, started lazily).  Returns
  /// the replica id.
  std::uint64_t advertise(const std::string& name, const orb::ObjectRef& ref);

  /// Withdraws one advertise()d registration (clean shutdown; the dtor
  /// withdraws everything left).
  void withdraw(const std::string& name, std::uint64_t replica_id);

 private:
  struct Advertised {
    std::string name;
    std::uint64_t replica_id = 0;
    Bytes ref;  // serialized, for re-registration after a daemon restart
  };

  void heartbeat_loop();
  void ensure_heartbeat_thread_locked() OHPX_REQUIRES(mutex_);

  ProcessHostConfig config_;
  World world_;
  std::vector<orb::Context*> contexts_;
  std::unique_ptr<naming::NameClient> names_;

  mutable sync::Mutex mutex_{"runtime.process_host"};
  std::vector<Advertised> advertised_ OHPX_GUARDED_BY(mutex_);
  bool stopping_ OHPX_GUARDED_BY(mutex_) = false;
  bool heartbeat_running_ OHPX_GUARDED_BY(mutex_) = false;
  std::condition_variable stop_cv_;
  std::thread heartbeat_thread_;
};

}  // namespace ohpx::runtime
