#include "ohpx/naming/replication.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/resilience/clock.hpp"

namespace ohpx::naming {

Replicator::Replicator(orb::Context& context, NameServiceServant& local,
                       orb::ObjectRef peer, ReplicatorConfig config)
    : local_(local),
      peer_(context, std::move(peer)),
      config_(config),
      started_ns_(resilience::now_ns()) {
  auto& registry = metrics::MetricsRegistry::global();
  sync_counter_ = registry.counter_handle(metrics::names::kNamingReplSyncs);
  update_counter_ =
      registry.counter_handle(metrics::names::kNamingReplUpdates);
}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      poll_once();
      if (promoted()) return;
      resilience::sleep_for(config_.poll_interval);
    }
  });
}

void Replicator::stop() {
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

bool Replicator::poll_once() {
  bool reached = false;
  try {
    auto [seq, updates] = peer_.fetch_updates(last_seq_);
    for (const NameSnapshot& snapshot : updates) {
      if (local_.apply_update(snapshot)) {
        update_counter_->fetch_add(1, std::memory_order_relaxed);
      }
    }
    last_seq_ = seq;
    ever_synced_ = true;
    reached = true;
    syncs_.fetch_add(1, std::memory_order_relaxed);
    sync_counter_->fetch_add(1, std::memory_order_relaxed);
  } catch (const Error&) {
    // Primary unreachable (or mid-restart): the replicated `__primary`
    // lease keeps ticking; promotion below decides what that means.
  }
  if (!promoted() && promotion_due()) {
    local_.set_role(NameServiceServant::Role::primary);
    introspect::anomaly(introspect::EventKind::promotion, ErrorCode::ok,
                        kPrimaryName);
    promoted_.store(true, std::memory_order_release);
  }
  return reached;
}

bool Replicator::promotion_due() {
  // The seat is held exactly as long as the primary's `__primary` lease
  // is live in *our* replicated view (refreshed every successful poll).
  if (local_.resolve(kPrimaryName).has_value()) return false;
  if (ever_synced_) return true;  // we held a view and watched it lapse
  // Never reached the peer: wait out one full lease term from boot before
  // assuming the seat is vacant (covers standby-first start order).
  return resilience::now_ns() - started_ns_ >
         std::chrono::duration_cast<std::chrono::nanoseconds>(
             config_.primary_ttl)
             .count();
}

}  // namespace ohpx::naming
