// Per-call target description handed to client-side proto-objects.
//
// The OR carries the *initial* address of a server object; the location
// service keeps it current across migrations.  At each remote request the
// ORB resolves the object's current address and placement and passes both
// here, so protocols and capabilities always judge applicability against
// the live topology (this is what makes the paper's Figure 3/4 adaptivity
// work without touching client code).  With them comes the handler bound
// to the address's in-process endpoint, found once when the target is
// resolved, which the in-process bearers dispatch to.
#pragma once

#include <cstdint>
#include <string>

#include "ohpx/netsim/topology.hpp"
#include "ohpx/transport/inproc.hpp"

namespace ohpx::proto {

struct ServerAddress {
  std::uint32_t context_id = 0;
  netsim::MachineId machine = netsim::kInvalidMachine;
  std::string endpoint;        // in-process endpoint name ("ctx/<id>")
  std::string tcp_host;        // empty when the context has no TCP listener
  std::uint16_t tcp_port = 0;
  std::uint64_t epoch = 0;     // location epoch (bumped by migration)

  friend bool operator==(const ServerAddress&, const ServerAddress&) = default;
};

struct CallTarget {
  netsim::Placement placement;
  ServerAddress address;
  /// The handler bound to `address.endpoint` when the target was
  /// resolved; null when no handler was bound or there is no endpoint.
  transport::EndpointHandle handler;
};

}  // namespace ohpx::proto
