// Protocol factory registry: instantiates client-side proto-objects from
// the (name, proto-data) entries of an Object Reference's protocol table.
// Custom protocols (paper §3.2, second aspect of adaptivity) plug in by
// registering a factory under a new name; they then participate in
// selection like any built-in.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/protocol/entry.hpp"
#include "ohpx/protocol/protocol.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::proto {

using ProtocolFactory = std::function<ProtocolPtr(const ProtocolEntry&)>;

class ProtocolRegistry {
 public:
  /// Process-wide registry pre-loaded with shm / nexus-tcp / tcp / glue.
  static ProtocolRegistry& instance();

  void register_factory(const std::string& name, ProtocolFactory factory);
  bool contains(const std::string& name) const;

  /// Instantiates one proto-object; throws ProtocolError(protocol_unknown)
  /// for unregistered names, protocol_bad_proto_data for malformed blobs.
  ProtocolPtr instantiate(const ProtocolEntry& entry) const;

  /// Instantiates a whole table, preserving preference order.  Entries for
  /// unknown protocols are skipped (a reference minted by a newer peer may
  /// carry protocols this process lacks; the rest of the table still works).
  std::vector<ProtocolPtr> instantiate_table(const ProtoTable& table) const;

 private:
  ProtocolRegistry();

  mutable sync::Mutex mutex_{"proto.registry"};
  std::map<std::string, ProtocolFactory> factories_ OHPX_GUARDED_BY(mutex_);
};

}  // namespace ohpx::proto
