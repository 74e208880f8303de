// ohpx::sync — the repo's only sanctioned mutex vocabulary.
//
// Raw std::mutex / std::lock_guard are banned outside this directory
// (ohpx-lint's naked-mutex rule enforces it) for two reasons:
//
//   1. *Visibility to the analysis.*  libstdc++'s lock types carry no
//      thread-safety attributes, so Clang's -Wthread-safety cannot see a
//      std::lock_guard acquire anything — every OHPX_GUARDED_BY access
//      under one would be a false positive once the warning is an error.
//      The wrappers here are fully annotated capabilities.
//
//   2. *Lock-order validation.*  The checked flavor registers every
//      acquisition with the process-wide graph in lock_order.hpp and
//      reports potential deadlocks (cycles) deterministically at lock
//      time, citing both acquisition sites.
//
// Flavors:
//
//   sync::Mutex        what runtime code declares.  Checked in Debug
//                      builds (and when OHPX_LOCK_ORDER_CHECKS is forced
//                      on), a bare annotated std::mutex otherwise — the
//                      validator contributes zero code to release lock().
//                      The library decides, not the includer's NDEBUG
//                      (see kLockOrderChecked).
//   sync::OrderedMutex the always-checked flavor, available in every
//                      build.  Tests and diagnostics use it so the
//                      validator is exercised under the tier-1 config.
//
// Guards (all CTAD-friendly — `sync::LockGuard lock(mutex_);`):
//
//   sync::LockGuard    scoped exclusive hold (std::lock_guard shape)
//   sync::UniqueLock   exclusive hold exposing native() for
//                      std::condition_variable::wait
//
// Name every mutex at construction (`sync::Mutex mutex_{"orb.context"};`).
// Names are lock *classes*: the validator orders by name, so instances of
// one class share a rank and ABBA inversions are caught across objects.
#pragma once

#include <mutex>

#include "ohpx/common/annotations.hpp"
#include "ohpx/sync/lock_order.hpp"

namespace ohpx::sync {

/// Build-wide: validate lock order in sync::Mutex (OrderedMutex always
/// validates) in Debug builds and when the CMake option
/// OHPX_LOCK_ORDER_CHECKS is on, compile the validator out otherwise.
/// ohpx_sync exports the decision as a compile definition, so every
/// translation unit sees the library's sync::Mutex layout whatever its
/// own NDEBUG.
#if !defined(OHPX_LOCK_ORDER_CHECKS)
#error "OHPX_LOCK_ORDER_CHECKS is undefined: link the ohpx_sync target"
#endif
inline constexpr bool kLockOrderChecked = OHPX_LOCK_ORDER_CHECKS != 0;

namespace detail {

/// Storage for the validator's node pointer — empty in unchecked flavors
/// so a release sync::Mutex carries no validator state.
template <bool Checked>
struct OrderNode {
  lock_order::Node* node = nullptr;
};
template <>
struct OrderNode<false> {};

}  // namespace detail

/// Annotated mutex.  `Checked` selects whether acquisitions feed the
/// lock-order validator; both flavors are full Clang thread-safety
/// capabilities.
template <bool Checked>
class OHPX_CAPABILITY("mutex") BasicMutex : private detail::OrderNode<Checked> {
 public:
  static constexpr bool kChecked = Checked;

  explicit BasicMutex(const char* name = "unnamed") noexcept : name_(name) {
    if constexpr (Checked) {
      this->node = lock_order::register_mutex(name);
    }
  }

  BasicMutex(const BasicMutex&) = delete;
  BasicMutex& operator=(const BasicMutex&) = delete;

  void lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) OHPX_ACQUIRE() {
    if constexpr (Checked) {
      lock_order::on_acquire(this->node, {file, line});
    } else {
      (void)file;
      (void)line;
    }
    mutex_.lock();
  }

  void unlock() OHPX_RELEASE() {
    mutex_.unlock();
    if constexpr (Checked) {
      lock_order::on_release(this->node);
    }
  }

  bool try_lock(const char* file = __builtin_FILE(),
                int line = __builtin_LINE()) OHPX_TRY_ACQUIRE(true) {
    const bool acquired = mutex_.try_lock();
    if constexpr (Checked) {
      if (acquired) lock_order::on_try_acquire(this->node, {file, line});
    } else {
      (void)file;
      (void)line;
    }
    return acquired;
  }

  /// The wrapped mutex, for std::condition_variable via UniqueLock.
  std::mutex& native() noexcept { return mutex_; }

  const char* name() const noexcept { return name_; }

 private:
  std::mutex mutex_;
  const char* name_;
};

using Mutex = BasicMutex<kLockOrderChecked>;
using OrderedMutex = BasicMutex<true>;

/// Scoped exclusive hold (the std::lock_guard of this vocabulary).
template <typename MutexT = Mutex>
class OHPX_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(MutexT& mutex, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) OHPX_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(file, line);
  }

  ~LockGuard() OHPX_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  MutexT& mutex_;
};

template <typename MutexT>
LockGuard(MutexT&, const char*, int) -> LockGuard<MutexT>;

/// Scoped exclusive hold that can be released/reacquired and exposes the
/// native std::unique_lock for std::condition_variable::wait.  Waiting
/// keeps the mutex on the validator's held stack — conservative and
/// correct: edges recorded after the wait returns are real orderings.
template <typename MutexT = Mutex>
class OHPX_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(MutexT& mutex, const char* file = __builtin_FILE(),
                      int line = __builtin_LINE()) OHPX_ACQUIRE(mutex)
      : mutex_(mutex), inner_(mutex.native(), std::defer_lock) {
    acquire(file, line);
  }

  ~UniqueLock() OHPX_RELEASE() {
    if (owned_) release();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) OHPX_ACQUIRE() {
    acquire(file, line);
  }

  void unlock() OHPX_RELEASE() { release(); }

  bool owns_lock() const noexcept { return owned_; }

  /// For std::condition_variable::wait only; the wait's internal
  /// unlock/relock stays inside this hold.
  std::unique_lock<std::mutex>& native() noexcept { return inner_; }

 private:
  void acquire(const char* file, int line) {
    if constexpr (MutexT::kChecked) {
      lock_order::on_acquire(order_node(), {file, line});
    } else {
      (void)file;
      (void)line;
    }
    inner_.lock();
    owned_ = true;
  }

  void release() {
    inner_.unlock();
    owned_ = false;
    if constexpr (MutexT::kChecked) {
      lock_order::on_release(order_node());
    }
  }

  lock_order::Node* order_node() noexcept {
    // Re-register by name: cheap (interned) and keeps MutexT's validator
    // state private.
    return lock_order::register_mutex(mutex_.name());
  }

  MutexT& mutex_;
  std::unique_lock<std::mutex> inner_;
  bool owned_ = false;
};

template <typename MutexT>
UniqueLock(MutexT&, const char*, int) -> UniqueLock<MutexT>;

}  // namespace ohpx::sync
