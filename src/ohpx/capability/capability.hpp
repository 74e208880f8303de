// Remote access capabilities (paper §4).
//
// A capability encapsulates one attribute of remote access — encryption,
// authentication, compression, a lease, a call quota, auditing — as an
// opaque byte-processor plus an admission check.  Capabilities are held in
// order by a *glue protocol* (src/ohpx/protocol/glue.*): the sender runs
// process() front-to-back over the outgoing payload, the receiver runs
// unprocess() back-to-front, so the chain composes like function
// application.
//
// Capabilities are exchangeable between processes: descriptor() lowers a
// capability to a serializable CapabilityDescriptor (kind + string params)
// that travels inside object references, and the CapabilityRegistry
// re-instantiates it on the other side.  A descriptor's parameters are
// another process's bytes, so a factory reads each number and each key
// through a typed reader (integer(), decimal(), scope(), hex()) that takes
// exactly what the text says, in the range the capability's arithmetic
// allows, or refuses it.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ohpx/capability/scope.hpp"
#include "ohpx/netsim/topology.hpp"
#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::cap {

enum class Direction : std::uint8_t { request = 0, reply = 1 };

/// Everything a capability may consult about the call in flight.
struct CallContext {
  std::uint64_t request_id = 0;
  std::uint64_t object_id = 0;
  std::uint32_t method_id = 0;
  Direction direction = Direction::request;
  netsim::Placement placement;

  /// Absolute deadline (ns on the resilience clock) of the enclosing call,
  /// 0 = unbounded.  Glue fills it from the ambient deadline so chain
  /// processing can stop early when the budget is already spent.
  std::int64_t deadline_ns = 0;

  /// Deterministic per-call nonce both sides can derive (cipher seeding).
  std::uint64_t nonce() const noexcept {
    return request_id * 2 + (direction == Direction::reply ? 1 : 0);
  }
};

/// Serializable form of a capability: registry kind + string parameters.
struct CapabilityDescriptor {
  std::string kind;
  std::map<std::string, std::string> params;

  void wire_serialize(wire::Encoder& enc) const;
  static CapabilityDescriptor wire_deserialize(wire::Decoder& dec);

  /// Fetches a parameter or throws CapabilityDenied(capability_bad_payload).
  const std::string& require(const std::string& name) const;

  /// Fetches a parameter with a fallback.
  std::string get_or(const std::string& name, std::string fallback) const;

  /// Reads a parameter as a parse_number() in [min, max]; `fallback` when
  /// it is absent, which nullopt makes an error.
  std::uint64_t integer(
      const std::string& name, std::optional<std::uint64_t> fallback,
      std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  /// Reads a parameter as a parse_decimal() in [min, max]; `fallback`
  /// when it is absent, which nullopt makes an error.
  double decimal(const std::string& name, std::optional<double> fallback,
                 double min = 0.0,
                 double max = std::numeric_limits<double>::max()) const;

  /// Reads the `scope` parameter, `fallback` when it is absent.
  Scope scope(Scope fallback) const;

  /// Reads a required parameter of hex digits (a key or a token) as its
  /// bytes, exactly `size` of them when given.  Refuses as the readers
  /// above do, but the message withholds the value: it is key material.
  Bytes hex(const std::string& name,
            std::optional<std::size_t> size = std::nullopt) const;

  /// Throws CapabilityDenied(capability_bad_payload) naming this kind,
  /// parameter `name`, its value and what a value must be (`wanted`).
  /// The typed readers refuse through this; so does a factory reading a
  /// parameter of its own shape.
  [[noreturn]] void refuse(const std::string& name,
                           std::string_view wanted) const;

  friend bool operator==(const CapabilityDescriptor&,
                         const CapabilityDescriptor&) = default;
};

class Capability {
 public:
  explicit Capability(Scope scope = Scope::always) noexcept : scope_(scope) {}
  virtual ~Capability() = default;

  /// Registry kind, e.g. "encryption" — stable across processes.
  virtual std::string_view kind() const noexcept = 0;

  /// Whether this capability applies for the given client/server placement:
  /// its scope's verdict (paper §4.3: an authentication capability may
  /// apply only across LANs).  Non-applicable capabilities make their
  /// whole glue protocol non-applicable (glue applicability = AND of its
  /// capabilities').
  bool applicable(const netsim::Placement& placement) const {
    return scope_applies(scope_, placement);
  }

  /// Where this capability applies.  Kinds built with a scope write it as
  /// their descriptor's `scope` parameter.
  Scope scope() const noexcept { return scope_; }

  /// Admission check run before the payload transform — leases, quotas and
  /// rate limits live here.  Throws CapabilityDenied to refuse the call.
  virtual void admit(const CallContext& call) { (void)call; }

  /// Transforms an outgoing payload in place (sender side).
  virtual void process(wire::Buffer& payload, const CallContext& call) = 0;

  /// Inverse of process (receiver side).  Throws CapabilityDenied when
  /// verification fails (bad MAC, bad checksum, malformed payload).
  virtual void unprocess(wire::Buffer& payload, const CallContext& call) = 0;

  /// Lowers to the exchangeable descriptor form — what travels inside
  /// object references to build *client-side* copies.  Must never contain
  /// server-only secrets.
  virtual CapabilityDescriptor descriptor() const = 0;

  /// Descriptor used when the *server-side* copy itself moves (glue
  /// bindings following a migrating object).  Defaults to descriptor();
  /// capabilities with server-only state (e.g. delegation root keys)
  /// override it.
  virtual CapabilityDescriptor server_descriptor() const { return descriptor(); }

 private:
  Scope scope_;
};

using CapabilityPtr = std::shared_ptr<Capability>;

}  // namespace ohpx::cap
