// ohpx::Future / ohpx::Promise — the completion vocabulary of the async
// invocation path.
//
// std::future cannot express what the reactor needs: completion from a
// foreign event-loop thread, *idempotent* settlement (a reply racing a
// deadline cancellation must lose silently, never complete the future a
// second time), and a lightweight continuation hook so a raw reply frame
// can be decoded into a typed result without parking a thread per call.
//
// Contract:
//   - a future settles exactly once (first of set_value / set_exception /
//     cancel wins; later attempts return false and are dropped);
//   - get() waits, then returns the value or throws the stored error: a
//     new copy of it per get() for an ohpx::Error, so no two threads
//     share one error object; it may be called once (the value is moved
//     out);
//   - map() runs its stage on the thread that settles the future: the
//     reactor loop for tcp, the caller for the in-process bearers (their
//     futures settle before invoke_async returns, so the stage runs
//     inline when it is mapped).  Stages must be cheap and must not
//     block: on the reactor path they run on the event loop.
//
// Waiting uses a condition variable on real time: a Future is a
// cross-thread rendezvous, not a modeled-cost actor, so the resilience
// ManualClock does not apply (cancellation driven by that clock still
// works — the *reactor* watches the resilience clock and settles the
// future, the waiter just wakes up).
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx {

namespace detail {

// Raises a stored ohpx::Error as a new copy owned by the calling thread.
// The stored error is read only here, under the state's lock, by a thread
// that still holds the state; so whichever thread drops the state last,
// and the stored error with it, does so after every read, through the
// shared_ptr hand-off.  Handing out the stored object itself would let a
// waiter read it after dropping its future, while another thread still
// holds the state (the reactor loop, a continuation), and the count that
// orders that last release lives in the C++ runtime, where
// ThreadSanitizer cannot see it.  Other exceptions rethrow as they are.
[[noreturn]] inline void throw_copy_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const Error& stored) {
    stored.throw_copy();
  }
  __builtin_unreachable();  // both paths above throw
}

template <typename T>
struct FutureStorage {
  std::optional<T> value;
};
template <>
struct FutureStorage<void> {
  bool value = false;  // "a value was stored" marker
};

template <typename T>
class FutureState {
 public:
  bool ready() const {
    sync::LockGuard lock(mutex_);
    return settled_;
  }

  template <typename... V>
  bool set_value(V&&... v) {
    std::function<void()> continuation;
    {
      sync::LockGuard lock(mutex_);
      if (settled_) return false;
      if constexpr (std::is_void_v<T>) {
        storage_.value = true;
      } else {
        storage_.value.emplace(std::forward<V>(v)...);
      }
      settled_ = true;
      continuation = std::move(continuation_);
      continuation_ = nullptr;
    }
    ready_.notify_all();
    if (continuation) continuation();
    return true;
  }

  bool set_exception(std::exception_ptr error) {
    std::function<void()> continuation;
    {
      sync::LockGuard lock(mutex_);
      if (settled_) return false;
      error_ = std::move(error);
      settled_ = true;
      continuation = std::move(continuation_);
      continuation_ = nullptr;
    }
    ready_.notify_all();
    if (continuation) continuation();
    return true;
  }

  void wait() {
    sync::UniqueLock lock(mutex_);
    while (!settled_) ready_.wait(lock.native());
  }

  bool wait_for(Nanoseconds timeout) {
    sync::UniqueLock lock(mutex_);
    const auto until = std::chrono::steady_clock::now() + timeout;
    while (!settled_) {
      if (ready_.wait_until(lock.native(), until) ==
          std::cv_status::timeout) {
        return settled_;
      }
    }
    return true;
  }

  T take() {
    wait();
    sync::LockGuard lock(mutex_);
    if (error_) throw_copy_of(error_);
    if constexpr (std::is_void_v<T>) {
      return;
    } else {
      if (!storage_.value.has_value()) {
        throw Error(ErrorCode::internal, "future value already taken");
      }
      T out = std::move(*storage_.value);
      storage_.value.reset();
      return out;
    }
  }

  void on_ready(std::function<void()> continuation) {
    bool run_now = false;
    {
      sync::LockGuard lock(mutex_);
      if (settled_) {
        run_now = true;
      } else {
        continuation_ = std::move(continuation);
      }
    }
    if (run_now) continuation();
  }

 private:
  mutable sync::Mutex mutex_{"common.future"};
  std::condition_variable ready_;
  bool settled_ OHPX_GUARDED_BY(mutex_) = false;
  FutureStorage<T> storage_ OHPX_GUARDED_BY(mutex_);
  std::exception_ptr error_ OHPX_GUARDED_BY(mutex_);
  std::function<void()> continuation_ OHPX_GUARDED_BY(mutex_);
};

}  // namespace detail

template <typename T>
class Promise;

template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  bool ready() const { return state_ && state_->ready(); }

  /// Blocks until settled, then returns the value (moved out — call get()
  /// once) or throws the stored error (a copy, for an ohpx::Error).
  T get() {
    ensure_valid();
    return state_->take();
  }

  void wait() {
    ensure_valid();
    state_->wait();
  }

  /// Waits up to `timeout` (real time); true when the future settled.
  bool wait_for(Nanoseconds timeout) {
    ensure_valid();
    return state_->wait_for(timeout);
  }

  /// Maps this future into a Future<U> by running `fn` on the settling
  /// thread.  `fn` takes the settled Future<T> and returns U (or throws);
  /// exceptions — stored or thrown by `fn` — flow into the result.
  /// Registers the continuation on the shared state directly: one
  /// type-erased callable, so one allocation, per stage and call.
  template <typename U, typename F>
  Future<U> map(F fn) {
    ensure_valid();
    Promise<U> promise;
    Future<U> mapped = promise.future();
    state_->on_ready(
        [state = state_, promise, fn = std::move(fn)]() mutable {
          std::exception_ptr error;
          try {
            if constexpr (std::is_void_v<U>) {
              fn(Future<T>(std::move(state)));
              promise.set_value();
            } else {
              promise.set_value(fn(Future<T>(std::move(state))));
            }
            return;
          } catch (...) {
            error = std::current_exception();
          }
          // Published after the handler ends: this thread then holds no
          // reference to the exception by the time a waiter reads it.
          promise.set_exception(std::move(error));
        });
    return mapped;
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  void ensure_valid() const {
    if (!state_) {
      throw Error(ErrorCode::internal, "future has no shared state");
    }
  }

  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> future() const { return Future<T>(state_); }

  /// First settlement wins; all of these return false (and change
  /// nothing) when the future already settled.
  template <typename... V>
  bool set_value(V&&... v) {
    return state_->set_value(std::forward<V>(v)...);
  }

  bool set_exception(std::exception_ptr error) {
    return state_->set_exception(std::move(error));
  }

  /// Settles with an ohpx error — the cancellation entry point (deadline
  /// expiry, connection teardown).  Idempotent like every settlement.
  bool cancel(ErrorCode code, const std::string& message) {
    std::exception_ptr error;
    try {
      throw_error(code, message);
    } catch (...) {
      error = std::current_exception();
    }
    // Published after the handler ends, as in map().
    return state_->set_exception(std::move(error));
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

}  // namespace ohpx
