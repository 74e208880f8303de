#include "ohpx/netsim/topology.hpp"

#include <algorithm>

#include "ohpx/sync/mutex.hpp"

namespace ohpx::netsim {

using std::chrono::microseconds;

LinkSpec ethernet_10() {
  return LinkSpec{"ethernet-10", 10e6, microseconds(1000)};
}
LinkSpec fast_ethernet_100() {
  return LinkSpec{"ethernet-100", 100e6, microseconds(500)};
}
LinkSpec atm_155() {
  return LinkSpec{"atm-155", 155e6, microseconds(300)};
}
LinkSpec wan_t3() {
  return LinkSpec{"wan-t3", 45e6, microseconds(20000)};
}
LinkSpec loopback() {
  return LinkSpec{"loopback", 2e9, microseconds(20)};
}

Topology::Topology() : default_wan_(wan_t3()), loopback_(loopback()) {}

LanId Topology::add_lan(const std::string& name) {
  sync::LockGuard lock(mutex_);
  const LanId id = static_cast<LanId>(lans_.size());
  lans_.push_back(Lan{name, fast_ethernet_100(), id});
  return id;
}

MachineId Topology::add_machine(const std::string& name, LanId lan) {
  sync::LockGuard lock(mutex_);
  if (lan >= lans_.size()) {
    throw Error(ErrorCode::internal, "add_machine: unknown LAN");
  }
  machines_.push_back(Machine{name, lan, 0.0});
  return static_cast<MachineId>(machines_.size() - 1);
}

std::size_t Topology::lan_count() const {
  sync::LockGuard lock(mutex_);
  return lans_.size();
}

std::size_t Topology::machine_count() const {
  sync::LockGuard lock(mutex_);
  return machines_.size();
}

const std::string& Topology::machine_name(MachineId m) const {
  sync::LockGuard lock(mutex_);
  check_machine(m);
  return machines_[m].name;
}

const std::string& Topology::lan_name(LanId lan) const {
  sync::LockGuard lock(mutex_);
  check_lan(lan);
  return lans_[lan].name;
}

LanId Topology::lan_of(MachineId m) const {
  sync::LockGuard lock(mutex_);
  check_machine(m);
  return machines_[m].lan;
}

bool Topology::has_machine(MachineId m) const {
  sync::LockGuard lock(mutex_);
  return m < machines_.size();
}

bool Topology::same_machine(MachineId a, MachineId b) const {
  sync::LockGuard lock(mutex_);
  check_machine(a);
  check_machine(b);
  return a == b;
}

bool Topology::same_lan(MachineId a, MachineId b) const {
  sync::LockGuard lock(mutex_);
  check_machine(a);
  check_machine(b);
  return machines_[a].lan == machines_[b].lan;
}

bool Topology::same_campus(MachineId a, MachineId b) const {
  sync::LockGuard lock(mutex_);
  check_machine(a);
  check_machine(b);
  return lans_[machines_[a].lan].campus == lans_[machines_[b].lan].campus;
}

void Topology::set_campus(LanId lan, std::uint32_t campus) {
  sync::LockGuard lock(mutex_);
  check_lan(lan);
  lans_[lan].campus = campus;
}

std::uint32_t Topology::campus_of(LanId lan) const {
  sync::LockGuard lock(mutex_);
  check_lan(lan);
  return lans_[lan].campus;
}

void Topology::set_lan_link(LanId lan, LinkSpec spec) {
  sync::LockGuard lock(mutex_);
  check_lan(lan);
  lans_[lan].link = std::move(spec);
}

void Topology::set_wan_link(LanId a, LanId b, LinkSpec spec) {
  sync::LockGuard lock(mutex_);
  check_lan(a);
  check_lan(b);
  wan_links_[std::minmax(a, b)] = std::move(spec);
}

void Topology::set_default_wan_link(LinkSpec spec) {
  sync::LockGuard lock(mutex_);
  default_wan_ = std::move(spec);
}

void Topology::set_loopback_link(LinkSpec spec) {
  sync::LockGuard lock(mutex_);
  loopback_ = std::move(spec);
}

LinkSpec Topology::link_between(MachineId a, MachineId b) const {
  sync::LockGuard lock(mutex_);
  check_machine(a);
  check_machine(b);
  return link_locked(a, b);
}

LinkSpec Topology::link_or_wan_t3(MachineId a, MachineId b) const {
  sync::LockGuard lock(mutex_);
  if (a >= machines_.size() || b >= machines_.size()) return wan_t3();
  return link_locked(a, b);
}

const LinkSpec& Topology::link_locked(MachineId a, MachineId b) const {
  if (a == b) return loopback_;
  const LanId lan_a = machines_[a].lan;
  const LanId lan_b = machines_[b].lan;
  if (lan_a == lan_b) return lans_[lan_a].link;
  const auto it = wan_links_.find(std::minmax(lan_a, lan_b));
  if (it != wan_links_.end()) return it->second;
  return default_wan_;
}

void Topology::set_load(MachineId m, double load) {
  sync::LockGuard lock(mutex_);
  check_machine(m);
  machines_[m].load = load;
}

void Topology::add_load(MachineId m, double delta) {
  sync::LockGuard lock(mutex_);
  check_machine(m);
  machines_[m].load += delta;
}

double Topology::load(MachineId m) const {
  sync::LockGuard lock(mutex_);
  check_machine(m);
  return machines_[m].load;
}

MachineId Topology::least_loaded() const {
  sync::LockGuard lock(mutex_);
  if (machines_.empty()) {
    throw Error(ErrorCode::internal, "least_loaded: no machines");
  }
  MachineId best = 0;
  for (MachineId m = 1; m < machines_.size(); ++m) {
    if (machines_[m].load < machines_[best].load) best = m;
  }
  return best;
}

void Topology::check_machine(MachineId m) const {
  if (m >= machines_.size()) {
    throw Error(ErrorCode::internal, "unknown machine id");
  }
}

void Topology::check_lan(LanId lan) const {
  if (lan >= lans_.size()) {
    throw Error(ErrorCode::internal, "unknown LAN id");
  }
}

}  // namespace ohpx::netsim
