#include "ohpx/protocol/select.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/common/log.hpp"

namespace ohpx::proto {

Protocol* select_protocol(const std::vector<ProtocolPtr>& candidates,
                          const ProtoPool& pool, const CallTarget& target,
                          std::size_t* index, const EntryGate& gate) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& candidate = candidates[i];
    if (!pool.allows(std::string(candidate->name()))) continue;
    if (!candidate->applicable(target)) continue;
    if (gate && !gate(i)) continue;
    if (index != nullptr) *index = i;
    return candidate.get();
  }
  return nullptr;
}

Protocol& select_protocol_or_throw(const std::vector<ProtocolPtr>& candidates,
                                   const ProtoPool& pool,
                                   const CallTarget& target, std::size_t* index,
                                   const EntryGate& gate) {
  Protocol* selected = select_protocol(candidates, pool, target, index, gate);
  if (selected == nullptr) {
    throw ProtocolError(ErrorCode::protocol_no_match,
                        "no applicable protocol for this placement "
                        "(candidates: " +
                            std::to_string(candidates.size()) + ")");
  }
  log_trace("protocol", "selected ", selected->describe());
  return *selected;
}

}  // namespace ohpx::proto
