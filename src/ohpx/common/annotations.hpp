// Clang thread-safety annotation macros (no-ops on other compilers).
//
// The ORB's central promise — capability chains, applicability
// re-evaluation and migration running *concurrently with user traffic* —
// only holds if every shared member is provably reached under its lock.
// These macros let the code state that contract where the data lives:
//
//   mutable sync::Mutex mutex_{"layer.component"};
//   std::deque<Task> queue_ OHPX_GUARDED_BY(mutex_);
//
// Under Clang, `-Wthread-safety` (promoted to an error by the top-level
// CMakeLists when the compiler supports it) turns the declarations into
// compile-time checks; under GCC and MSVC they expand to nothing and cost
// nothing.  Always lock through the ohpx::sync wrappers
// (ohpx/sync/mutex.hpp): the standard guards carry no annotations, so a
// raw std::lock_guard is invisible to the analysis.
// See docs/static_analysis.md for the conventions used across the repo.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define OHPX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OHPX_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Declares a type to be a lockable capability (used by the ohpx::sync
/// wrappers; rarely needed elsewhere).
#define OHPX_CAPABILITY(x) OHPX_THREAD_ANNOTATION(capability(x))

/// Member is only read/written while `x` is held.
#define OHPX_GUARDED_BY(x) OHPX_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define OHPX_PT_GUARDED_BY(x) OHPX_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function must be called with the given lock(s) already held.
#define OHPX_REQUIRES(...) \
  OHPX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must be called with the given lock(s) NOT held (it acquires
/// them itself; calling with them held would deadlock).
#define OHPX_EXCLUDES(...) OHPX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the lock and returns holding it.
#define OHPX_ACQUIRE(...) \
  OHPX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a lock the caller held.
#define OHPX_RELEASE(...) \
  OHPX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts the lock; the first argument is the return value that
/// means "acquired" (e.g. OHPX_TRY_ACQUIRE(true) on a bool try_lock()).
#define OHPX_TRY_ACQUIRE(...) \
  OHPX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Asserts (at runtime, by contract) that the calling thread already holds
/// the capability — the analysis believes it from here on.
#define OHPX_ASSERT_CAPABILITY(x) \
  OHPX_THREAD_ANNOTATION(assert_capability(x))

/// Scoped lock type (lock_guard-style RAII wrappers).
#define OHPX_SCOPED_CAPABILITY OHPX_THREAD_ANNOTATION(scoped_lockable)

/// Return value is a reference to a `x`-guarded member.
#define OHPX_RETURN_CAPABILITY(x) OHPX_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot follow (keep rare; justify
/// each use in a comment).
#define OHPX_NO_THREAD_SAFETY_ANALYSIS \
  OHPX_THREAD_ANNOTATION(no_thread_safety_analysis)
