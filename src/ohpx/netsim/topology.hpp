// Machine / LAN / link model standing in for the paper's physical testbed
// (Sun Ultra-10s on Ethernet + 155 Mbps ATM — see DESIGN.md §2).
//
// The topology answers the two placement predicates the paper's
// applicability rules need — same machine? same LAN? — and supplies a
// LinkSpec (bandwidth + latency) for any machine pair so simulated
// transports can charge modeled wire time.  It also tracks a scalar load
// figure per machine for the load-balancing subsystem.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::netsim {

using MachineId = std::uint32_t;
using LanId = std::uint32_t;

inline constexpr MachineId kInvalidMachine = 0xffffffffu;
inline constexpr LanId kInvalidLan = 0xffffffffu;

/// Physical link characteristics.  bandwidth_bps is payload bits/second.
struct LinkSpec {
  std::string name;
  double bandwidth_bps = 0.0;
  Nanoseconds latency{0};

  /// Modeled one-way transfer time for `bytes` over this link.
  Nanoseconds transfer_time(std::uint64_t bytes) const noexcept {
    if (bandwidth_bps <= 0.0) return latency;
    const double seconds = static_cast<double>(bytes) * 8.0 / bandwidth_bps;
    return latency + Nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  }
};

/// Common presets (numbers match the era of the paper's testbed).
LinkSpec ethernet_10();       // 10 Mbps,  ~1.0 ms latency
LinkSpec fast_ethernet_100(); // 100 Mbps, ~0.5 ms latency
LinkSpec atm_155();           // 155 Mbps, ~0.3 ms latency
LinkSpec wan_t3();            // 45 Mbps,  ~20 ms latency (inter-LAN default)
LinkSpec loopback();          // 2 Gbps,   ~0.02 ms (same-machine IPC)

class Topology {
 public:
  Topology();

  LanId add_lan(const std::string& name);
  MachineId add_machine(const std::string& name, LanId lan);

  std::size_t lan_count() const;
  std::size_t machine_count() const;
  const std::string& machine_name(MachineId m) const;
  const std::string& lan_name(LanId lan) const;
  LanId lan_of(MachineId m) const;

  /// Whether `m` names a machine of *this* topology.  Object references
  /// arriving from another process carry machine ids that mean nothing
  /// here; placement predicates treat them as "unknown, not local".
  bool has_machine(MachineId m) const;

  bool same_machine(MachineId a, MachineId b) const;
  bool same_lan(MachineId a, MachineId b) const;
  bool same_campus(MachineId a, MachineId b) const;

  /// Groups `lan` into an administrative campus/site (default: every LAN
  /// is its own campus).  Capabilities can scope themselves to
  /// cross-campus traffic only — e.g. "no security needed on the same
  /// campus" in the paper's Figure 4 experiment.
  void set_campus(LanId lan, std::uint32_t campus);
  std::uint32_t campus_of(LanId lan) const;

  /// Sets the intra-LAN link for `lan` (e.g. ATM for one LAN, Ethernet
  /// for another).
  void set_lan_link(LanId lan, LinkSpec spec);

  /// Sets the link used between a specific pair of LANs.
  void set_wan_link(LanId a, LanId b, LinkSpec spec);

  /// Sets the fallback link for LAN pairs with no explicit wan link.
  void set_default_wan_link(LinkSpec spec);

  /// Sets the link used when client and server share a machine.
  void set_loopback_link(LinkSpec spec);

  /// The link a message between `a` and `b` traverses.
  LinkSpec link_between(MachineId a, MachineId b) const;

  /// As link_between(), but a machine this topology does not know (an id
  /// minted in another process) gets wan_t3() instead of an error: one
  /// lookup under one lock, for the per-call link of a Placement.
  LinkSpec link_or_wan_t3(MachineId a, MachineId b) const;

  // -- load tracking (for the high-water-mark balancer) --
  void set_load(MachineId m, double load);
  void add_load(MachineId m, double delta);
  double load(MachineId m) const;
  /// Machine with the smallest load; ties broken by lowest id.
  MachineId least_loaded() const;

 private:
  void check_machine(MachineId m) const;
  void check_lan(LanId lan) const;
  const LinkSpec& link_locked(MachineId a, MachineId b) const
      OHPX_REQUIRES(mutex_);

  struct Machine {
    std::string name;
    LanId lan = kInvalidLan;
    double load = 0.0;
  };
  struct Lan {
    std::string name;
    LinkSpec link;
    std::uint32_t campus = 0;
  };

  mutable sync::Mutex mutex_{"netsim.topology"};
  std::vector<Machine> machines_ OHPX_GUARDED_BY(mutex_);
  std::vector<Lan> lans_ OHPX_GUARDED_BY(mutex_);
  std::map<std::pair<LanId, LanId>, LinkSpec> wan_links_ OHPX_GUARDED_BY(mutex_);
  LinkSpec default_wan_ OHPX_GUARDED_BY(mutex_);
  LinkSpec loopback_ OHPX_GUARDED_BY(mutex_);
};

/// The placement of one client/server pair, consumed by applicability
/// predicates of protocols and capabilities (paper §3.2, §4.3).
struct Placement {
  MachineId client_machine = kInvalidMachine;
  MachineId server_machine = kInvalidMachine;
  const Topology* topology = nullptr;

  /// Both ends are machines this topology knows about.  False for
  /// references minted in another process (their machine ids are foreign),
  /// in which case every same_* predicate is false and the link falls back
  /// to the default WAN model — the conservative reading of "somewhere
  /// else entirely".
  bool resolvable() const {
    return topology != nullptr && topology->has_machine(client_machine) &&
           topology->has_machine(server_machine);
  }

  bool same_machine() const {
    return resolvable() &&
           topology->same_machine(client_machine, server_machine);
  }
  bool same_lan() const {
    return resolvable() && topology->same_lan(client_machine, server_machine);
  }
  bool same_campus() const {
    return resolvable() &&
           topology->same_campus(client_machine, server_machine);
  }
  LinkSpec link() const {
    if (topology == nullptr) return wan_t3();
    return topology->link_or_wan_t3(client_machine, server_machine);
  }
};

}  // namespace ohpx::netsim
