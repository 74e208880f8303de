// Placement scopes: where does a capability apply?  The Capability base
// holds one and answers applicable() from it.  The paper's authentication
// capability is the model case — "applicable only when the client and the
// server are on different LANs" (§4.3).
#pragma once

#include <optional>
#include <string_view>

#include "ohpx/netsim/topology.hpp"

namespace ohpx::cap {

enum class Scope {
  always,        // applies to every placement
  cross_campus,  // only when client and server are on different campuses/sites
  cross_lan,   // only when client and server are on different LANs
  remote,      // only when client and server are on different machines
  same_lan,    // only within one LAN
  same_machine,// only within one machine
  never,       // applies nowhere (testing / administrative kill switch)
};

/// Evaluates a scope against a placement.
bool scope_applies(Scope scope, const netsim::Placement& placement);

std::string_view to_string(Scope scope) noexcept;

/// The scope to_string() names `name`; nullopt for any other text.
std::optional<Scope> scope_from_string(std::string_view name) noexcept;

}  // namespace ohpx::cap
