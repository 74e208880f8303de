// HPC++-style group operations over sets of remote objects.
//
// The paper grounds Open HPC++ in HPC++ (§2), whose HPC++Lib toolkit
// provides collective operations across contexts.  This module gives the
// same flavour on top of global pointers: a GroupPointer<Stub> holds
// references to N replicas/peers of one interface and offers
//
//   * broadcast — invoke on every member (concurrently), gather results;
//   * any      — failover: try members in order until one succeeds;
//   * round_robin — spread successive calls across members;
//
// Each member is an independent OR, so different members may carry
// different protocol tables and capability sets — a replicated service can
// hand out authenticated references for remote replicas and raw ones for
// local replicas, and the group machinery adapts per member.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <vector>

#include "ohpx/common/error.hpp"
#include "ohpx/common/thread_pool.hpp"
#include "ohpx/common/log.hpp"
#include "ohpx/orb/global_pointer.hpp"

namespace ohpx::hpcxx {

template <orb::TypedStub StubT>
class GroupPointer {
 public:
  GroupPointer() = default;

  /// Binds every reference in `context`.  Throws on type mismatch.
  GroupPointer(orb::Context& context, const std::vector<orb::ObjectRef>& refs) {
    members_.reserve(refs.size());
    for (const auto& ref : refs) {
      members_.emplace_back(context, ref);
    }
  }

  void add(orb::Context& context, const orb::ObjectRef& ref) {
    members_.emplace_back(context, ref);
  }

  std::size_t size() const noexcept { return members_.size(); }
  bool empty() const noexcept { return members_.empty(); }

  StubT& member(std::size_t index) { return members_.at(index).stub(); }

  /// Invokes `op` on every member concurrently and gathers the results in
  /// member order.  Exceptions from any member propagate (the first one,
  /// after all futures settle).
  template <typename Ret>
  std::vector<Ret> broadcast(const std::function<Ret(StubT&)>& op) {
    require_members();
    std::vector<std::future<Ret>> futures;
    futures.reserve(members_.size());
    for (auto& member : members_) {
      StubT& stub = member.stub();
      futures.push_back(
          ThreadPool::shared().async([&stub, &op] { return op(stub); }));
    }
    std::vector<Ret> results;
    results.reserve(futures.size());
    std::exception_ptr first_error;
    for (auto& future : futures) {
      try {
        results.push_back(future.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// Failover: applies `op` to members in order, returning the first
  /// success.  If every member fails, rethrows the last failure.
  template <typename Ret>
  Ret any(const std::function<Ret(StubT&)>& op) {
    require_members();
    std::exception_ptr last_error;
    for (auto& member : members_) {
      try {
        return op(member.stub());
      } catch (const Error& e) {
        log_debug("hpcxx", "group member failed (", e.what(),
                  "), trying next");
        last_error = std::current_exception();
      }
    }
    std::rethrow_exception(last_error);
  }

  /// Spreads successive calls across members (thread-safe counter).
  template <typename Ret>
  Ret round_robin(const std::function<Ret(StubT&)>& op) {
    require_members();
    const std::size_t index =
        next_.fetch_add(1, std::memory_order_relaxed) % members_.size();
    return op(members_[index].stub());
  }

 private:
  void require_members() const {
    if (members_.empty()) {
      throw ObjectError(ErrorCode::bad_object_ref, "group has no members");
    }
  }

  std::vector<orb::GlobalPointer<StubT>> members_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace ohpx::hpcxx
