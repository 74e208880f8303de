// Text format for describing a topology, so examples, tests and
// deployments can declare their world instead of hand-coding it:
//
//   # comments and blank lines are ignored
//   lan lab atm155 campus=0
//   lan uni ethernet100 campus=1
//   machine bigiron lab
//   machine ws17 lab
//   machine cluster uni
//   wan lab uni t3
//   default_wan t3
//   loopback loopback
//
// Link specifiers are either a preset (ethernet10, ethernet100, atm155,
// t3, loopback) or custom:<mbps>:<latency_us> (e.g. custom:622:200 for
// OC-12 with 200 us latency): mbps a plain decimal in (0, 1e9], latency
// an integer, both read by the strict readers of common/parse.hpp, so
// "nan", "1e3" and "100abc" are refused.  So is a campus id that is not
// a plain u32 ("campus=7x").
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "ohpx/netsim/topology.hpp"

namespace ohpx::netsim {

struct ParsedTopology {
  // Topology owns a mutex and is pinned in place; keep it on the heap so
  // ParsedTopology itself stays movable.
  std::shared_ptr<Topology> storage = std::make_shared<Topology>();
  std::map<std::string, LanId> lans;
  std::map<std::string, MachineId> machines;

  Topology& topology() const { return *storage; }

  LanId lan(const std::string& name) const;
  MachineId machine(const std::string& name) const;
};

/// Resolves a link specifier (preset name or custom:<mbps>:<latency_us>).
/// Throws Error(wire_bad_value) on unknown specifiers.
LinkSpec parse_link_spec(std::string_view token);

/// Parses a full topology description; throws Error(wire_bad_value) with
/// a line number on any malformed directive.
ParsedTopology parse_topology(std::string_view text);

}  // namespace ohpx::netsim
