#include "ohpx/protocol/registry.hpp"

#include "ohpx/capability/registry.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/common/log.hpp"
#include "ohpx/protocol/glue.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/protocol/nexus_sim.hpp"
#include "ohpx/protocol/relay.hpp"
#include "ohpx/protocol/shm.hpp"
#include "ohpx/protocol/tcp_proto.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::proto {

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;
  return registry;
}

ProtocolRegistry::ProtocolRegistry() {
  factories_["shm"] = [](const ProtocolEntry&) -> ProtocolPtr {
    return std::make_unique<ShmProtocol>();
  };
  factories_["nexus-tcp"] = [](const ProtocolEntry&) -> ProtocolPtr {
    return std::make_unique<NexusSimProtocol>();
  };
  factories_["tcp"] = [](const ProtocolEntry&) -> ProtocolPtr {
    return std::make_unique<TcpProtocol>();
  };
  factories_["relay"] = [](const ProtocolEntry& entry) -> ProtocolPtr {
    return std::make_unique<RelayProtocol>(text_of(entry.proto_data));
  };
  factories_["glue"] = [](const ProtocolEntry& entry) -> ProtocolPtr {
    GlueProtoData data;
    try {
      data = decode_glue_proto_data(entry.proto_data);
    } catch (const WireError& e) {
      throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                          std::string("glue proto-data malformed: ") + e.what());
    }
    if (data.delegate.name == "glue") {
      // The server pipeline unwraps exactly one glue layer per request;
      // nesting would silently corrupt payloads, so refuse it loudly.
      throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                          "glue protocol cannot delegate to another glue");
    }
    cap::CapabilityChain chain =
        cap::CapabilityRegistry::instance().instantiate_chain(data.capabilities);
    ProtocolPtr delegate = ProtocolRegistry::instance().instantiate(data.delegate);
    return std::make_unique<GlueProtocol>(data.glue_id, std::move(chain),
                                          std::move(delegate));
  };
}

void ProtocolRegistry::register_factory(const std::string& name,
                                        ProtocolFactory factory) {
  sync::LockGuard lock(mutex_);
  factories_[name] = std::move(factory);
}

bool ProtocolRegistry::contains(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  return factories_.contains(name);
}

ProtocolPtr ProtocolRegistry::instantiate(const ProtocolEntry& entry) const {
  ProtocolFactory factory;
  {
    sync::LockGuard lock(mutex_);
    const auto it = factories_.find(entry.name);
    if (it == factories_.end()) {
      throw ProtocolError(ErrorCode::protocol_unknown,
                          "no factory for protocol '" + entry.name + "'");
    }
    factory = it->second;
  }
  return factory(entry);
}

std::vector<ProtocolPtr> ProtocolRegistry::instantiate_table(
    const ProtoTable& table) const {
  std::vector<ProtocolPtr> out;
  out.reserve(table.size());
  for (const auto& entry : table.entries()) {
    if (!contains(entry.name)) {
      log_debug("protocol", "skipping unknown protocol '", entry.name,
                "' in table");
      continue;
    }
    out.push_back(instantiate(entry));
  }
  return out;
}

}  // namespace ohpx::proto
