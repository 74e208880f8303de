#include "ohpx/capability/scope.hpp"

namespace ohpx::cap {

bool scope_applies(Scope scope, const netsim::Placement& placement) {
  switch (scope) {
    case Scope::always: return true;
    case Scope::cross_campus: return !placement.same_campus();
    case Scope::cross_lan: return !placement.same_lan();
    case Scope::remote: return !placement.same_machine();
    case Scope::same_lan: return placement.same_lan();
    case Scope::same_machine: return placement.same_machine();
    case Scope::never: return false;
  }
  return false;
}

std::string_view to_string(Scope scope) noexcept {
  switch (scope) {
    case Scope::always: return "always";
    case Scope::cross_campus: return "cross_campus";
    case Scope::cross_lan: return "cross_lan";
    case Scope::remote: return "remote";
    case Scope::same_lan: return "same_lan";
    case Scope::same_machine: return "same_machine";
    case Scope::never: return "never";
  }
  return "?";
}

std::optional<Scope> scope_from_string(std::string_view name) noexcept {
  if (name == "always") return Scope::always;
  if (name == "cross_campus") return Scope::cross_campus;
  if (name == "cross_lan") return Scope::cross_lan;
  if (name == "remote") return Scope::remote;
  if (name == "same_lan") return Scope::same_lan;
  if (name == "same_machine") return Scope::same_machine;
  if (name == "never") return Scope::never;
  return std::nullopt;
}

}  // namespace ohpx::cap
