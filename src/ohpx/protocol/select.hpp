// Automatic run-time protocol selection (paper §3.2, third aspect):
// "When a remote request is made, the protocols in the GP's OR are compared
// with those in the proto-pool and the first match is used to satisfy the
// request.  Thus, the most suitable protocol is always selected."
//
// The candidate list preserves the OR's preference order; a candidate wins
// iff the local pool allows its name AND it reports itself applicable for
// the current placement.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ohpx/protocol/pool.hpp"
#include "ohpx/protocol/protocol.hpp"

namespace ohpx::proto {

/// Per-entry admission gate for selection: given a candidate's index,
/// answer whether it may serve the current call.  This is how circuit
/// breakers make a tripped entry temporarily inapplicable — selection
/// fails over to the next OR-table ∩ pool entry by the paper's own
/// first-match rule, no special-case path needed.
using EntryGate = std::function<bool(std::size_t)>;

/// Returns the first pool-allowed, applicable protocol the gate admits (a
/// null gate admits everything), or nullptr.  A non-null `index` gets the
/// winner's position in `candidates`.
Protocol* select_protocol(const std::vector<ProtocolPtr>& candidates,
                          const ProtoPool& pool, const CallTarget& target,
                          std::size_t* index = nullptr,
                          const EntryGate& gate = {});

/// Like select_protocol but throws ProtocolError(protocol_no_match) when
/// nothing fits.
Protocol& select_protocol_or_throw(const std::vector<ProtocolPtr>& candidates,
                                   const ProtoPool& pool,
                                   const CallTarget& target,
                                   std::size_t* index = nullptr,
                                   const EntryGate& gate = {});

}  // namespace ohpx::proto
