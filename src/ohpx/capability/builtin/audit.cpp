#include "ohpx/capability/builtin/audit.hpp"

#include "ohpx/sync/mutex.hpp"

namespace ohpx::cap {

AuditCapability::AuditCapability(std::size_t max_records)
    : max_records_(max_records) {}

void AuditCapability::record(const wire::Buffer& payload,
                             const CallContext& call) {
  sync::LockGuard lock(mutex_);
  ++total_;
  records_.push_back(AuditRecord{call.request_id, call.object_id,
                                 call.method_id, call.direction,
                                 payload.size()});
  while (records_.size() > max_records_) records_.pop_front();
}

void AuditCapability::process(wire::Buffer& payload, const CallContext& call) {
  record(payload, call);
}

void AuditCapability::unprocess(wire::Buffer& payload, const CallContext& call) {
  record(payload, call);
}

std::vector<AuditRecord> AuditCapability::records() const {
  sync::LockGuard lock(mutex_);
  return std::vector<AuditRecord>(records_.begin(), records_.end());
}

std::uint64_t AuditCapability::total_calls() const {
  sync::LockGuard lock(mutex_);
  return total_;
}

CapabilityDescriptor AuditCapability::descriptor() const {
  CapabilityDescriptor d;
  d.kind = "audit";
  d.params["max_records"] = std::to_string(max_records_);
  return d;
}

CapabilityPtr AuditCapability::from_descriptor(
    const CapabilityDescriptor& descriptor) {
  return std::make_shared<AuditCapability>(
      descriptor.integer("max_records", 1024));
}

}  // namespace ohpx::cap
