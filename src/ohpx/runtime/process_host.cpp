#include "ohpx/runtime/process_host.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "ohpx/common/error.hpp"
#include "ohpx/common/parse.hpp"

namespace ohpx::runtime {
namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

/// A strict parse_number() in [1, max], or a config error.
std::int64_t require_number(const std::string& value, const std::string& what,
                            std::int64_t max) {
  if (const auto parsed = parse_number(value, 1, max)) return *parsed;
  throw ObjectError(ErrorCode::bad_object_ref,
                    "process-host config: " + what + " wants a number from 1 "
                    "to " + std::to_string(max) + ", got '" + value + "'");
}

/// "host:port", port 0 (ephemeral) to 65535; a bare ":port" keeps the
/// default host.
void parse_listen(const std::string& value, ProcessHostConfig& config) {
  const auto address = parse_host_port(value, /*min_port=*/0);
  if (!address) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "process-host config: listen wants host:port with a "
                      "port of 0-65535, got '" + value + "'");
  }
  if (!address->host.empty()) config.listen_host = address->host;
  config.listen_port = address->port;
}

void apply_key(const std::string& key, const std::string& value,
               ProcessHostConfig& config) {
  if (key == "machine") {
    config.machine_name = value;
  } else if (key == "listen") {
    parse_listen(value, config);
  } else if (key == "advertise") {
    config.advertise_host = value;
  } else if (key == "named") {
    config.named_uri = value;
  } else if (key == "contexts") {
    config.contexts = static_cast<std::size_t>(
        require_number(value, key, std::numeric_limits<std::int64_t>::max()));
  } else if (key == "heartbeat_ms") {
    // Zero would beat back to back, and a zero TTL is no lease at all: a
    // permanent registration that outlives the process.
    config.heartbeat_interval =
        std::chrono::milliseconds(require_number(value, key, kMaxMilliseconds));
  } else if (key == "ttl_ms") {
    config.replica_ttl =
        std::chrono::milliseconds(require_number(value, key, kMaxMilliseconds));
  } else {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "process-host config: unknown key '" + key + "'");
  }
}

}  // namespace

ProcessHostConfig ProcessHostConfig::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot read process-host config '" + path + "'");
  }
  ProcessHostConfig config;
  std::string line;
  while (std::getline(in, line)) {
    const std::string text = trim(line);
    if (text.empty() || text[0] == '#') continue;
    const auto eq = text.find('=');
    if (eq == std::string::npos) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "process-host config: expected key = value, got '" +
                            text + "'");
    }
    apply_key(trim(text.substr(0, eq)), trim(text.substr(eq + 1)), config);
  }
  return config;
}

ProcessHostConfig ProcessHostConfig::from_args(int argc,
                                               const char* const* argv) {
  ProcessHostConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "unknown process-host flag '" + flag + "'");
    }
    if (i + 1 >= argc) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "process-host flag " + flag + " wants a value");
    }
    const std::string value = argv[++i];
    if (flag == "--config") {
      config = from_file(value);  // the base; later flags override it
      continue;
    }
    // Every other flag is its file key: --heartbeat-ms is heartbeat_ms.
    std::string key = flag.substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    apply_key(key, value, config);
  }
  return config;
}

ProcessHost::ProcessHost(ProcessHostConfig config)
    : config_(std::move(config)) {
  if (config_.contexts == 0) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "process-host config: contexts must be >= 1");
  }
  const netsim::LanId lan = world_.add_lan(config_.machine_name + "-lan");
  const netsim::MachineId machine =
      world_.add_machine(config_.machine_name, lan);
  contexts_.reserve(config_.contexts);
  for (std::size_t i = 0; i < config_.contexts; ++i) {
    orb::Context& context = world_.create_context(machine);
    // Context 0 takes the configured port; the rest bind ephemeral ports
    // on the same interface so each has its own accepting listener.
    context.enable_tcp(config_.listen_host,
                       i == 0 ? config_.listen_port : std::uint16_t{0},
                       config_.advertise_host);
    contexts_.push_back(&context);
  }
  if (!config_.named_uri.empty()) {
    names_ = std::make_unique<naming::NameClient>(*contexts_.front(),
                                                  config_.named_uri);
  }
}

ProcessHost::~ProcessHost() {
  std::vector<Advertised> to_withdraw;
  {
    sync::UniqueLock lock(mutex_);
    stopping_ = true;
    to_withdraw = std::move(advertised_);
    advertised_.clear();
  }
  stop_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  for (const Advertised& entry : to_withdraw) {
    try {
      names_->unbind_replica(entry.name, entry.replica_id);
    } catch (const Error&) {
      // Best effort: the daemon may already be gone; the lease will lapse.
    }
  }
}

std::uint16_t ProcessHost::port() const {
  return contexts_.front()->current_address().tcp_port;
}

naming::NameClient& ProcessHost::names() {
  if (!names_) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "process host has no name service configured");
  }
  return *names_;
}

std::uint64_t ProcessHost::advertise(const std::string& name,
                                     const orb::ObjectRef& ref) {
  const std::uint64_t replica_id =
      names().bind_replica(name, ref, config_.replica_ttl);
  sync::LockGuard lock(mutex_);
  advertised_.push_back(Advertised{name, replica_id, ref.to_bytes()});
  ensure_heartbeat_thread_locked();
  return replica_id;
}

void ProcessHost::withdraw(const std::string& name, std::uint64_t replica_id) {
  {
    sync::LockGuard lock(mutex_);
    advertised_.erase(
        std::remove_if(advertised_.begin(), advertised_.end(),
                       [&](const Advertised& entry) {
                         return entry.name == name &&
                                entry.replica_id == replica_id;
                       }),
        advertised_.end());
  }
  names().unbind_replica(name, replica_id);
}

void ProcessHost::ensure_heartbeat_thread_locked() {
  if (heartbeat_running_ || stopping_) return;
  heartbeat_running_ = true;
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
}

void ProcessHost::heartbeat_loop() {
  bool troubled = false;
  while (true) {
    std::vector<Advertised> snapshot;
    {
      sync::UniqueLock lock(mutex_);
      // After a troubled round (directory unreachable or a refused
      // renewal — e.g. a directory failover promoted a standby whose
      // replicated lease lapsed), come back at a quarter interval so the
      // registration converges well inside one replica TTL.
      const auto interval = troubled
                                ? std::max(config_.heartbeat_interval / 4,
                                           std::chrono::milliseconds(1))
                                : config_.heartbeat_interval;
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stopping_) {
        if (stop_cv_.wait_until(lock.native(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) return;
      snapshot = advertised_;
    }
    troubled = false;
    for (Advertised& entry : snapshot) {
      try {
        if (!names_->heartbeat(entry.name, entry.replica_id,
                               config_.replica_ttl)) {
          // Registration gone (daemon restarted, lease lapsed during a
          // partition, or a freshly promoted standby never saw this id):
          // re-register under a fresh replica id.
          const std::uint64_t fresh = names_->bind_replica(
              entry.name, orb::ObjectRef::from_bytes(entry.ref),
              config_.replica_ttl);
          sync::LockGuard lock(mutex_);
          for (Advertised& live : advertised_) {
            if (live.name == entry.name &&
                live.replica_id == entry.replica_id) {
              live.replica_id = fresh;
            }
          }
        }
      } catch (const Error&) {
        // Directory unreachable: keep beating; leases are renewed again
        // as soon as it comes back (or re-registered via the false path).
        troubled = true;
      }
    }
  }
}

}  // namespace ohpx::runtime
