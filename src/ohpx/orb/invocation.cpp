#include "ohpx/orb/invocation.hpp"

#include <optional>
#include <utility>

#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/protocol/select.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace ohpx::orb {
namespace {

// An error reply, decoded and counted under rmi.errors.<code>: every error
// reply counts, a retried one too.
ErrorCode decode_error_reply(const proto::ReplyMessage& reply,
                             std::string& message) {
  std::uint32_t code_raw = 0;
  wire::decode_error_body(reply.payload.view(), code_raw, message);
  const ErrorCode code = static_cast<ErrorCode>(code_raw);
  metrics::MetricsRegistry::global()
      .counter_handle(metrics::names::rmi_error(to_string(code)))
      ->fetch_add(1, std::memory_order_relaxed);
  return code;
}

// Raises a decoded error reply as its typed exception.  A transport code
// in a reply is the servant's own downstream fault (the server replies
// with whatever Error its servant threw): the reply arrived, so this
// client's channel works, and it is raised as a RemoteError — never
// retried, never read as "this server is dead".
[[noreturn]] void raise_error_reply(ErrorCode code,
                                    const std::string& message) {
  const auto value = static_cast<std::uint32_t>(code);
  if (value >= 200 && value < 300) throw RemoteError(code, message);
  throw_error(code, message);
}

// Ends a call whose budget is spent before an attempt: one `deadline`
// anomaly, then the throw.
[[noreturn]] void deadline_spent(int attempts) {
  const std::string spent = "call deadline exceeded after " +
                            std::to_string(attempts) + " attempt(s)";
  introspect::anomaly(introspect::EventKind::deadline,
                      ErrorCode::deadline_exceeded, spent);
  throw DeadlineExceeded(spent);
}

}  // namespace

void CallCore::feed_breaker(resilience::BreakerSet* breakers,
                            std::size_t entry, std::string_view protocol,
                            ErrorCode outcome) {
  // Backpressure is the exception: a window-full refusal means the channel
  // is *too* healthy to keep up, not broken — it must never push a breaker
  // toward open (it would turn transient overload into failover).  The
  // reactor that refused it recorded the anomaly.
  if (breakers == nullptr || outcome == ErrorCode::backpressure) return;
  if (outcome == ErrorCode::ok) {
    // Any reply — even an error reply — proves the channel works; a
    // half-open breaker closes on it.
    if (breakers->at(entry).on_success() ==
        resilience::CircuitBreaker::Transition::closed) {
      introspect::anomaly(introspect::EventKind::breaker_close,
                          ErrorCode::ok, protocol);
    }
    return;
  }
  // The channel itself failed: a tripped breaker makes the entry
  // inapplicable, so a retry — or the next call — fails over to the next
  // table entry.
  if (breakers->at(entry).on_failure() ==
      resilience::CircuitBreaker::Transition::opened) {
    introspect::anomaly(introspect::EventKind::breaker_open, outcome,
                        protocol);
  }
}

CallCore::CallCore(Context& context, ObjectRef ref)
    : context_(context), ref_(std::move(ref)) {
  if (!ref_.valid()) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot bind to an invalid object reference");
  }
  protocols_ =
      proto::ProtocolRegistry::instance().instantiate_table(ref_.table());
  if (protocols_.empty()) {
    throw ProtocolError(ErrorCode::protocol_no_match,
                        "object reference carries no usable protocol");
  }
  for (const auto& protocol : protocols_) {
    if (!protocol->applicability_is_stable()) {
      cacheable_ = false;  // e.g. relay: gateway liveness is not epoch-keyed
      break;
    }
  }
  auto& registry = metrics::MetricsRegistry::global();
  calls_total_ = registry.counter_handle(metrics::names::kRmiCalls);
  cache_hits_ = registry.counter_handle(metrics::names::kRmiSelectCacheHit);
  cache_misses_ = registry.counter_handle(metrics::names::kRmiSelectCacheMiss);
  cache_invalidate_ =
      registry.counter_handle(metrics::names::kRmiSelectCacheInvalidate);
  latency_ = registry.latency_handle(metrics::names::kRmiLatency);
  async_latency_ = registry.latency_handle(metrics::names::kRmiAsyncLatency);
}

proto::CallTarget CallCore::resolve_target() const {
  proto::CallTarget target;
  // A foreign reference — home machine unknown to this world, e.g. a
  // bootstrap ref naming an explicit TCP endpoint — always dials its home
  // address.  The location table only tracks this world's placements, and
  // the well-known directory id legitimately lives at *several* endpoints
  // at once under a replicated directory: letting a local activation of
  // that id override a foreign ref would loop a standby's catch-up fetch
  // back onto itself.
  if (ref_.home().machine == netsim::kInvalidMachine) {
    target.address = ref_.home();
  } else {
    const auto resolved = context_.location().resolve(ref_.object_id());
    target.address = resolved ? *resolved : ref_.home();
  }
  target.placement = netsim::Placement{context_.machine(),
                                       target.address.machine,
                                       &context_.topology()};
  return target;
}

std::string CallCore::probe_protocol() const {
  const proto::CallTarget target = resolve_target();
  proto::Protocol* selected =
      proto::select_protocol(protocols_, context_.pool(), target);
  return selected ? selected->describe() : std::string();
}

void CallCore::set_breaker_config(const resilience::BreakerConfig& config) {
  // Every live breaker set is visible to the introspection plane: the
  // registry entry carries one protocol name per breaker entry, so the
  // exporter can render `ohpx_breaker_state{set, entry, protocol}` without
  // reaching back into this CallCore.
  const std::string label = "obj/" + std::to_string(ref_.object_id());
  std::shared_ptr<resilience::BreakerSet> registered;
  {
    sync::LockGuard lock(mutex_);
    if (config.enabled()) {
      breakers_ =
          std::make_shared<resilience::BreakerSet>(protocols_.size(), config);
      breakers_enabled_.store(true, std::memory_order_release);
      registered = breakers_;
    } else {
      breakers_enabled_.store(false, std::memory_order_release);
      breakers_.reset();
    }
  }
  if (registered) {
    std::vector<std::string> entries;
    entries.reserve(protocols_.size());
    for (const auto& protocol : protocols_) {
      entries.emplace_back(protocol->name());
    }
    resilience::BreakerRegistry::global().add(registered, label,
                                              std::move(entries));
  } else {
    resilience::BreakerRegistry::global().remove(label);
  }
}

resilience::CircuitBreaker::State CallCore::breaker_state(
    std::size_t entry) const {
  if (!breakers_enabled_.load(std::memory_order_acquire)) {
    return resilience::CircuitBreaker::State::closed;
  }
  sync::LockGuard lock(mutex_);
  if (!breakers_ || entry >= breakers_->size()) {
    return resilience::CircuitBreaker::State::closed;
  }
  return breakers_->at(entry).state();
}

std::shared_ptr<resilience::BreakerSet> CallCore::breaker_set() const {
  if (!breakers_enabled_.load(std::memory_order_relaxed)) return nullptr;
  sync::LockGuard lock(mutex_);
  return breakers_;
}

int CallCore::max_attempts_now() {
  const std::uint64_t revision = resilience::retry_policy_revision();
  if (retry_revision_seen_.load(std::memory_order_acquire) != revision) {
    const resilience::RetryPolicy policy = resilience::resolve_retry_policy(
        retry_policy_, context_.retry_policy());
    sync::LockGuard lock(mutex_);
    cached_policy_ = policy;
    cached_max_attempts_.store(policy.max_attempts,
                               std::memory_order_relaxed);
    retry_revision_seen_.store(revision, std::memory_order_release);
  }
  return cached_max_attempts_.load(std::memory_order_relaxed);
}

resilience::RetryPolicy CallCore::retry_policy_now() {
  (void)max_attempts_now();  // refresh the memo if policies changed
  sync::LockGuard lock(mutex_);
  return cached_policy_;
}

void CallCore::wait_backoff(
    std::optional<resilience::BackoffSchedule>& backoff, CostLedger& cost) {
  if (!backoff) backoff.emplace(retry_policy_now());
  const Nanoseconds delay = backoff->next();
  if (delay.count() <= 0) return;
  trace::event("retry.backoff", "waiting before retry");
  cost.add_modeled(delay);
  resilience::sleep_for(delay);
}

wire::Buffer CallCore::invoke_raw(std::uint32_t method_id, wire::Buffer args,
                                  CostLedger* ledger) {
  return invoke_internal(method_id, std::move(args), ledger, /*oneway=*/false);
}

void CallCore::invoke_oneway(std::uint32_t method_id, wire::Buffer args,
                             CostLedger* ledger) {
  wire::BufferPool::local().release(
      invoke_internal(method_id, std::move(args), ledger, /*oneway=*/true));
}

CallCore::Selection CallCore::select_for_call(
    bool use_cache, const std::shared_ptr<resilience::BreakerSet>& breakers) {
  Selection sel;
  std::shared_ptr<const CachedSelection> entry;

  // Probe the invalidation signals *before* resolving, so a concurrent
  // republish between the probe and the fill can only make the cached
  // entry look older than it is (a spurious miss next call, never a
  // stale hit).  The location probe is two-level: the service-wide
  // version (one atomic load) is enough while the map is quiet; only
  // when *some* object republished do we ask the precise per-object
  // epoch question — and if our object was not the one that moved, the
  // entry is revalidated at the newer version.
  std::uint64_t epoch = 0;
  bool epoch_probed = false;
  std::uint64_t generation = 0;
  std::uint64_t version = 0;
  if (use_cache) {
    version = context_.location().version();
    generation = context_.pool().generation();
    {
      sync::LockGuard lock(mutex_);
      entry = cache_;
    }
    if (entry != nullptr && entry->pool_generation == generation) {
      if (entry->location_version != version) {
        epoch = context_.location().epoch_of(ref_.object_id());
        epoch_probed = true;
        if (epoch == entry->location_epoch) {
          auto refreshed = std::make_shared<CachedSelection>(*entry);
          refreshed->location_version = version;
          sync::LockGuard lock(mutex_);
          if (cache_ == entry) cache_ = std::move(refreshed);
        } else {
          entry = nullptr;  // our object moved: stale, re-select below
          cache_invalidate_->fetch_add(1, std::memory_order_relaxed);
          trace::event("cache.invalidate", "epoch-changed");
        }
      }
    } else {
      entry = nullptr;
    }
    // A memoized selection must still pass its breaker: an entry whose
    // breaker tripped is temporarily inapplicable, so the hit degrades
    // to a gated re-selection (failover to the next table entry).
    if (entry != nullptr && breakers) {
      bool admitted = false;
      const auto transition = breakers->at(entry->entry_index).allow(admitted);
      if (transition == resilience::CircuitBreaker::Transition::probing) {
        trace::event("breaker.probe", entry->described);
      }
      if (!admitted) entry = nullptr;
    }
    if (entry != nullptr) {
      // last_protocol_ already equals entry->described: every fill sets
      // both under one lock, and every path that rewrites last_protocol_
      // without refilling also drops the cache.
      sel.protocol = entry->protocol;
      sel.proto_counter = entry->calls_by_protocol;
      sel.entry_index = entry->entry_index;
      sel.entry = std::move(entry);
      sel.from_cache = true;
      cache_hits_->fetch_add(1, std::memory_order_relaxed);
      return sel;
    }
  }

  if (use_cache) {
    cache_misses_->fetch_add(1, std::memory_order_relaxed);
    if (!epoch_probed) {
      epoch = context_.location().epoch_of(ref_.object_id());
    }
  }
  sel.resolved = resolve_target();
  if (breakers) {
    sel.protocol = &proto::select_protocol_or_throw(
        protocols_, context_.pool(), sel.resolved, sel.entry_index,
        [&](std::size_t candidate) {
          bool admitted = false;
          const auto transition = breakers->at(candidate).allow(admitted);
          if (transition == resilience::CircuitBreaker::Transition::probing) {
            trace::event("breaker.probe", protocols_[candidate]->name());
          }
          return admitted;
        });
  } else {
    sel.protocol = &proto::select_protocol_or_throw(
        protocols_, context_.pool(), sel.resolved, sel.entry_index,
        proto::EntryGate{});
  }
  std::string described = sel.protocol->describe();
  sel.proto_counter = metrics::MetricsRegistry::global().counter_handle(
      metrics::names::protocol_calls(sel.protocol->name()));
  sync::LockGuard lock(mutex_);
  last_protocol_ = described;
  if (use_cache) {
    auto fresh = std::make_shared<CachedSelection>();
    fresh->protocol = sel.protocol;
    fresh->target = sel.resolved;
    fresh->entry_index = sel.entry_index;
    fresh->location_epoch = epoch;
    fresh->location_version = version;
    fresh->pool_generation = generation;
    fresh->described = std::move(described);
    fresh->calls_by_protocol = sel.proto_counter;
    cache_ = std::move(fresh);
  } else {
    cache_.reset();  // never serve a selection cached before the
                     // toggle or a failed attempt
  }
  return sel;
}

wire::Buffer CallCore::invoke_internal(std::uint32_t method_id,
                                       wire::Buffer args, CostLedger* ledger,
                                       bool oneway) {
  CostLedger local;
  CostLedger& cost = ledger ? *ledger : local;
  auto& registry = metrics::MetricsRegistry::global();

  // Pay-when-used profiling: fast-path calls nobody attached a ledger to
  // skip the fine-grained cost clocks (several steady_clock reads per
  // call).  The uncached baseline keeps the always-on accounting of the
  // literal per-request pipeline — it is the fast path's "before" arm.
  if (!ledger && cacheable_ && cache_enabled_.load(std::memory_order_relaxed)) {
    local.disable_real_timing();
  }

  // Mint this call's deadline from the configured budget, tightened
  // against any ambient deadline (a servant calling downstream spends its
  // caller's remaining budget, never more).  With no budget and no
  // ambient deadline this is one relaxed load and one thread-local read.
  std::optional<resilience::DeadlineScope> deadline_scope;
  const std::int64_t budget =
      deadline_budget_ns_.load(std::memory_order_relaxed);
  if (budget > 0) {
    deadline_scope.emplace(resilience::now_ns() + budget);
  }
  const std::int64_t deadline = resilience::current_deadline_ns();

  // Root-or-join: a call made outside any trace mints a fresh root (if the
  // sampling decision says so); a call made *inside* one — a servant
  // invoking another object, a delegated hop — joins the ambient trace so
  // the whole causal chain lands in one tree.  When tracing is inactive
  // this whole block is one relaxed load.
  std::optional<trace::ContextScope> trace_scope;
  if (trace::TraceSink::active() && !trace::current_context().valid() &&
      trace::should_sample(trace_sampling_, context_.trace_sampling())) {
    trace_scope.emplace(trace::mint_root());
  }
  trace::Span call_span(trace::SpanKind::invoke, "rmi.invoke");
  call_span.annotate_u64("obj", ref_.object_id());
  call_span.annotate_u64("method", method_id);

  const int max_attempts = max_attempts_now();
  const std::shared_ptr<resilience::BreakerSet> breakers = breaker_set();
  std::optional<resilience::BackoffSchedule> backoff;

  for (int attempt = 0;; ++attempt) {
    // The budget bounds the *logical* call, retries and backoff waits
    // included — an expired budget ends the loop no matter how many
    // attempts the retry policy would still allow.
    if (resilience::deadline_expired(deadline)) deadline_spent(attempt);

    const bool use_cache =
        cacheable_ && cache_enabled_.load(std::memory_order_relaxed);

    trace::Span select_span(trace::SpanKind::selection, "select");

    Selection sel = select_for_call(use_cache, breakers);
    proto::Protocol* protocol = sel.protocol;
    const proto::CallTarget* target = &sel.target();
    metrics::MetricsRegistry::Counter* proto_counter = sel.proto_counter;
    const std::size_t entry_index = sel.entry_index;
    const bool served_from_cache = sel.from_cache;

    if (select_span.armed()) {
      select_span.annotate(served_from_cache ? "cache:hit"
                           : use_cache       ? "cache:miss"
                                             : "cache:off");
      select_span.annotate(protocol->name());
    }
    select_span.end();

    const wire::MessageHeader header = request_header(
        oneway ? wire::MessageType::oneway : wire::MessageType::request,
        method_id, deadline);

    if (use_cache) {
      calls_total_->fetch_add(1, std::memory_order_relaxed);
    } else {
      // Baseline arm: resolve the counter by name on every call, exactly
      // like the pre-fast-path pipeline.
      registry.counter_handle(metrics::names::kRmiCalls)
          ->fetch_add(1, std::memory_order_relaxed);
    }
    proto_counter->fetch_add(1, std::memory_order_relaxed);

    // Zero-copy handoff: the protocol works on the caller's buffer in
    // place.  Only when the protocol destroys the payload (glue) *and* a
    // retry is still possible do we stash a pristine copy.
    const bool may_retry = attempt + 1 < max_attempts;
    wire::Buffer retry_stash;
    if (may_retry && !protocol->preserves_payload()) {
      retry_stash = wire::BufferPool::local().acquire(args.size());
      retry_stash.append(args.view());
    }

    // One decision for every failed attempt, an error reply included.
    bool replied = false;
    try {
      proto::ReplyMessage reply = protocol->invoke(header, args, *target, cost);
      replied = true;
      feed_breaker(breakers.get(), entry_index, protocol->name(),
                   ErrorCode::ok);
      if (reply.header.type != wire::MessageType::reply) {
        std::string message;
        raise_error_reply(decode_error_reply(reply, message), message);
      }
      if (use_cache) {
        latency_->record(cost.total());
      } else {
        registry.latency_handle(metrics::names::kRmiLatency)
            ->record(cost.total());
      }
      auto& pool = wire::BufferPool::local();
      pool.release(std::move(retry_stash));
      pool.release(std::move(args));
      return std::move(reply.payload);
    } catch (const Error& e) {
      // Only this client's own channel failing feeds the breaker, and no
      // failed attempt leaves its selection memoized.
      if (!replied && dynamic_cast<const TransportError*>(&e) != nullptr) {
        feed_breaker(breakers.get(), entry_index, protocol->name(), e.code());
      }
      drop_cache();
      // Transient failures — a channel fault, a damaged exchange (a reply
      // failing framing or capability verification), a migration race —
      // re-select and go again; a RemoteError never does.  Refusals (auth,
      // quota, lease) and the deadline end the call.
      if (may_retry && resilience::is_retryable(e.code()) &&
          dynamic_cast<const RemoteError*>(&e) == nullptr) {
        introspect::anomaly(introspect::EventKind::retry, e.code(),
                            "object " + std::to_string(ref_.object_id()) +
                                ", attempt " + std::to_string(attempt + 1) +
                                ": " + e.what());
        wait_backoff(backoff, cost);
        if (!protocol->preserves_payload()) args = std::move(retry_stash);
        continue;
      }
      if (replied) {
        introspect::anomaly(introspect::EventKind::error, e.code(), e.what());
      } else if (e.code() == ErrorCode::deadline_exceeded) {
        introspect::anomaly(introspect::EventKind::deadline, e.code(),
                            e.what());
      }
      throw;
    }
  }
}

Future<proto::ReplyMessage> CallCore::invoke_async_reply(
    std::uint32_t method_id, wire::Buffer args, AsyncReplyTicket& ticket) {
  // Completion latency is measured submit-to-settlement: start the
  // ticket's stopwatch before any pipeline work so the recorded value
  // covers selection, submit and the round trip.
  ticket.watch = Stopwatch();
  ticket.latency = async_latency_;
  // Mint the deadline exactly like the sync path: the reactor captures
  // the ambient value at submit and cancels the future when it passes.
  std::optional<resilience::DeadlineScope> deadline_scope;
  const std::int64_t budget =
      deadline_budget_ns_.load(std::memory_order_relaxed);
  if (budget > 0) {
    deadline_scope.emplace(resilience::now_ns() + budget);
  }
  const std::int64_t deadline = resilience::current_deadline_ns();
  if (resilience::deadline_expired(deadline)) deadline_spent(0);

  // Root-or-join, per call: each async submission stamps its own trace
  // context into its own header — a thousand in-flight calls are a
  // thousand distinct wire contexts, not one per flush batch.
  std::optional<trace::ContextScope> trace_scope;
  if (trace::TraceSink::active() && !trace::current_context().valid() &&
      trace::should_sample(trace_sampling_, context_.trace_sampling())) {
    trace_scope.emplace(trace::mint_root());
  }
  trace::Span call_span(trace::SpanKind::invoke, "rmi.invoke");
  call_span.annotate_u64("obj", ref_.object_id());
  call_span.annotate_u64("method", method_id);
  call_span.annotate("async");

  // Selection: the same memoized fast path as the sync pipeline.  Under
  // fan-in every submission after the first is a cache hit — one atomic
  // version probe plus the breaker gate — instead of paying a re-resolve,
  // a table scan, a describe() build and a metric-name lookup per call.
  const std::shared_ptr<resilience::BreakerSet> breakers = breaker_set();
  const bool use_cache =
      cacheable_ && cache_enabled_.load(std::memory_order_relaxed);
  const Selection sel = select_for_call(use_cache, breakers);
  calls_total_->fetch_add(1, std::memory_order_relaxed);
  sel.proto_counter->fetch_add(1, std::memory_order_relaxed);

  const wire::MessageHeader header =
      request_header(wire::MessageType::request, method_id, deadline);
  Future<proto::ReplyMessage> exchange;
  try {
    exchange = sel.protocol->invoke_async(header, args, sel.target());
  } catch (const TransportError& e) {
    feed_breaker(breakers.get(), sel.entry_index, sel.protocol->name(),
                 e.code());
    throw;
  }
  // invoke_async is done with the argument buffer once it returns;
  // recycle it for the caller's next marshal.
  wire::BufferPool::local().release(std::move(args));
  // Settlement-side bookkeeping (breaker feed, error decoding) moves
  // into the caller's continuation via the ticket — counters live in
  // the global registry and the breaker set is shared ownership, so the
  // ticket may outlive this CallCore.
  ticket.breakers = breakers;
  ticket.entry_index = sel.entry_index;
  ticket.protocol = sel.protocol->name();
  ticket.expect_request_id = header.request_id;
  return exchange;
}

wire::Buffer CallCore::finish_async_reply(Future<proto::ReplyMessage> settled,
                                          const AsyncReplyTicket& ticket) {
  proto::ReplyMessage reply;
  try {
    reply = settled.get();
  } catch (const DeadlineExceeded& e) {
    introspect::anomaly(introspect::EventKind::async_deadline, e.code(),
                        e.what());
    throw;
  } catch (const TransportError& e) {
    feed_breaker(ticket.breakers.get(), ticket.entry_index, ticket.protocol,
                 e.code());
    throw;
  }
  feed_breaker(ticket.breakers.get(), ticket.entry_index, ticket.protocol,
               ErrorCode::ok);
  proto::check_reply(reply.header, ticket.expect_request_id);
  if (reply.header.type == wire::MessageType::reply) {
    if (ticket.latency) ticket.latency->record(ticket.watch.elapsed());
    return std::move(reply.payload);
  }
  std::string message;
  const ErrorCode code = decode_error_reply(reply, message);
  introspect::anomaly(introspect::EventKind::error, code, message);
  raise_error_reply(code, message);
}

wire::MessageHeader CallCore::request_header(wire::MessageType type,
                                             std::uint32_t method_id,
                                             std::int64_t deadline) const {
  wire::MessageHeader header;
  header.type = type;
  header.request_id = context_.next_request_id();
  header.object_id = ref_.object_id();
  header.method_or_code = method_id;

  // Propagate the trace over the wire: the current span here is the
  // rmi.invoke span (the selection span already ended), so server-side
  // spans parent directly under the client call.
  if (const trace::TraceContext tctx = trace::TraceSink::active()
                                           ? trace::current_context()
                                           : trace::TraceContext{};
      tctx.valid()) {
    header.flags |= wire::kFlagTraceContext;
    header.trace_hi = tctx.trace_hi;
    header.trace_lo = tctx.trace_lo;
    header.trace_parent_span = tctx.span_id;
    header.trace_flags = wire::kTraceFlagSampled;
  }

  // Propagate the deadline over the wire so the server refuses dispatch
  // (and servants inherit the budget) once it has passed.
  if (deadline != resilience::kNoDeadline) {
    header.flags |= wire::kFlagDeadline;
    header.deadline_ns = deadline;
  }
  return header;
}

void CallCore::drop_cache() {
  sync::LockGuard lock(mutex_);
  cache_.reset();
}

std::string CallCore::last_protocol() const {
  sync::LockGuard lock(mutex_);
  return last_protocol_;
}

}  // namespace ohpx::orb
