// Compile-time thread-safety capability layer + lock hierarchy.
//
// Wraps Clang's -Wthread-safety capability analysis (the annotations of
// "C/C++ Thread Safety Analysis", Hutchins et al., CGO 2014) behind
// SARBP_* macros, plus `sarbp::Mutex` / `sarbp::MutexLock` /
// `sarbp::CondVar` — annotated drop-in equivalents of std::mutex,
// std::unique_lock and std::condition_variable. Every mutex-protected
// invariant in the concurrency core (BoundedQueue, TaskGroup,
// TileExecutor, the job service, the plan cache, the obs registry, the
// shard router's abort cause) is declared with these macros, so a
// lock-discipline violation is a compile error under
// `-DSARBP_THREAD_SAFETY=ON` with Clang instead of a lucky TSan catch at
// runtime.
//
// Project rule (enforced by tools/sarbp_lint.py): `std::mutex` and
// `std::condition_variable` are spelled ONLY in this header (and in the
// runtime lock-order detector it feeds, src/common/deadlock.cpp).
// Everything else takes sarbp::Mutex, so every guarded field is
// annotatable.
//
// Lock hierarchy (DESIGN.md §14): every long-lived Mutex member declares
// a named level with SARBP_LOCK_LEVEL("module.name"); the level order is
// the single repo-wide registry in tools/lock_hierarchy.py, enforced
// three ways:
//   - statically, by SARBP_ACQUIRED_BEFORE/AFTER edges checked under
//     Clang's -Wthread-safety-beta in the static-analysis CI job;
//   - by the `lock-level` rule in tools/sarbp_lint.py (every Mutex member
//     declares a level, every level + edge matches the registry);
//   - at runtime, by the SARBP_DEADLOCK_CHECK lock-order tracker
//     (src/common/deadlock.h): per-thread held-lock stacks, a global
//     acquires-after edge graph, DFS cycle detection on each new edge.
// When SARBP_DEADLOCK_CHECK is off (the default), levels compile away
// and the wrappers are the plain std primitives with zero overhead.
//
// Conventions (DESIGN.md §10):
//   - every field protected by a mutex carries SARBP_GUARDED_BY(mutex_);
//   - `*_locked()` helpers that assume the caller holds the lock carry
//     SARBP_REQUIRES(mutex_);
//   - condition waits are written as explicit while-loops over guarded
//     state (never predicate lambdas), so the analysis sees every access;
//   - the rare deliberate escape hatch uses SARBP_NO_THREAD_SAFETY_ANALYSIS
//     with a written rationale.
//
// Under GCC (or Clang without the option) every macro expands to nothing
// and the wrappers compile to the underlying std primitives.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if !defined(SARBP_DEADLOCK_CHECK)
#define SARBP_DEADLOCK_CHECK 0
#endif
#if SARBP_DEADLOCK_CHECK
#include "common/deadlock.h"
#endif

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SARBP_TS_ATTR(x) __attribute__((x))
#endif
#endif
#ifndef SARBP_TS_ATTR
#define SARBP_TS_ATTR(x)  // no-op outside Clang
#endif

/// Type is a lockable capability ("mutex" names the kind in diagnostics).
#define SARBP_CAPABILITY(x) SARBP_TS_ATTR(capability(x))
/// RAII type that acquires a capability in its constructor and releases it
/// in its destructor.
#define SARBP_SCOPED_CAPABILITY SARBP_TS_ATTR(scoped_lockable)
/// Field may only be read/written while holding `x`.
#define SARBP_GUARDED_BY(x) SARBP_TS_ATTR(guarded_by(x))
/// Pointee may only be dereferenced while holding `x`.
#define SARBP_PT_GUARDED_BY(x) SARBP_TS_ATTR(pt_guarded_by(x))
/// Function requires the listed capabilities to be held on entry (and
/// still held on exit).
#define SARBP_REQUIRES(...) \
  SARBP_TS_ATTR(requires_capability(__VA_ARGS__))
#define SARBP_REQUIRES_SHARED(...) \
  SARBP_TS_ATTR(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability (held on exit, not on entry).
#define SARBP_ACQUIRE(...) SARBP_TS_ATTR(acquire_capability(__VA_ARGS__))
#define SARBP_ACQUIRE_SHARED(...) \
  SARBP_TS_ATTR(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on exit).
#define SARBP_RELEASE(...) SARBP_TS_ATTR(release_capability(__VA_ARGS__))
#define SARBP_RELEASE_SHARED(...) \
  SARBP_TS_ATTR(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `b`.
#define SARBP_TRY_ACQUIRE(b, ...) \
  SARBP_TS_ATTR(try_acquire_capability(b, __VA_ARGS__))
/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define SARBP_EXCLUDES(...) SARBP_TS_ATTR(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the capability guarding its result.
#define SARBP_RETURN_CAPABILITY(x) SARBP_TS_ATTR(lock_returned(x))
/// Escape hatch: disable the analysis for one function. Every use carries
/// a comment explaining why the discipline cannot be expressed.
#define SARBP_NO_THREAD_SAFETY_ANALYSIS \
  SARBP_TS_ATTR(no_thread_safety_analysis)

/// Static lock-order edges on a Mutex member: this mutex is acquired
/// before (outer to) / after (inner to) the listed mutexes. Checked by
/// Clang under -Wthread-safety-beta (the acquired_before/after attributes
/// are beta-only); the same edges must appear in tools/lock_hierarchy.py,
/// which the `lock-level` lint rule cross-checks against the registry's
/// topological order.
#define SARBP_ACQUIRED_BEFORE(...) SARBP_TS_ATTR(acquired_before(__VA_ARGS__))
#define SARBP_ACQUIRED_AFTER(...) SARBP_TS_ATTR(acquired_after(__VA_ARGS__))

namespace sarbp {

/// A named rank in the repo-wide lock hierarchy (tools/lock_hierarchy.py).
/// Construct via SARBP_LOCK_LEVEL("module.name") at the Mutex member
/// declaration. The name is the identity: the runtime detector keys its
/// acquires-after edge graph by level, not by instance, so two instances
/// of the same level blocking-nested report a self-cycle (same-level
/// nesting must use try_lock, which records no ordering edges).
struct LockLevel {
  const char* name;
};

}  // namespace sarbp

/// Declares the hierarchy level of a Mutex member:
///   Mutex mutex_{SARBP_LOCK_LEVEL("service.job")};
/// The `lock-level` lint rule requires one on every Mutex declaration in
/// src/ (suppress intentionally-unleveled mutexes with
/// `// lint: allow(lock-level) -- rationale`). Costs nothing unless
/// SARBP_DEADLOCK_CHECK is on.
#define SARBP_LOCK_LEVEL(name) (::sarbp::LockLevel{name})

namespace sarbp {

class CondVar;

/// Annotated mutual-exclusion capability. Same semantics and cost as the
/// std::mutex it wraps; the annotation is what lets Clang check that every
/// SARBP_GUARDED_BY field is only touched under it. Under
/// SARBP_DEADLOCK_CHECK each acquisition also feeds the lock-order cycle
/// detector (src/common/deadlock.h) with this mutex's declared level and
/// the call site.
class SARBP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex([[maybe_unused]] LockLevel level) noexcept {
#if SARBP_DEADLOCK_CHECK
    level_ = level.name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if SARBP_DEADLOCK_CHECK
  void lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) SARBP_ACQUIRE() {
    lockdep::on_lock_attempt(this, level_, {file, line});
    m_.lock();
    lockdep::on_lock_acquired(this, level_, {file, line}, /*via_try=*/false);
  }
  void unlock() SARBP_RELEASE() {
    lockdep::on_unlock(this);
    m_.unlock();
  }
  bool try_lock(const char* file = __builtin_FILE(),
                int line = __builtin_LINE()) SARBP_TRY_ACQUIRE(true) {
    const bool ok = m_.try_lock();
    if (ok) {
      // try_lock never blocks, so a successful try-acquisition cannot
      // close a wait cycle: it is pushed on the held stack (edges FROM it
      // to later blocking acquisitions are real deadlock risks) but no
      // edge TO it is recorded.
      lockdep::on_lock_acquired(this, level_, {file, line}, /*via_try=*/true);
    }
    return ok;
  }
#else
  void lock() SARBP_ACQUIRE() { m_.lock(); }
  void unlock() SARBP_RELEASE() { m_.unlock(); }
  bool try_lock() SARBP_TRY_ACQUIRE(true) { return m_.try_lock(); }
#endif

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex m_;
#if SARBP_DEADLOCK_CHECK
  const char* level_ = nullptr;  // nullptr = unleveled: held but unchecked
#endif
};

/// RAII scope lock over a Mutex (the annotated std::unique_lock). Supports
/// early unlock/relock; CondVar waits take it by reference.
class SARBP_SCOPED_CAPABILITY MutexLock {
 public:
#if SARBP_DEADLOCK_CHECK
  explicit MutexLock(Mutex& mutex, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) SARBP_ACQUIRE(mutex)
      : mutex_(&mutex), lock_(mutex.m_, std::defer_lock) {
    lockdep::on_lock_attempt(mutex_, mutex_->level_, {file, line});
    lock_.lock();
    lockdep::on_lock_acquired(mutex_, mutex_->level_, {file, line},
                              /*via_try=*/false);
  }
  ~MutexLock() SARBP_RELEASE() {
    if (lock_.owns_lock()) lockdep::on_unlock(mutex_);
  }
  void unlock() SARBP_RELEASE() {
    lockdep::on_unlock(mutex_);
    lock_.unlock();
  }
  void lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) SARBP_ACQUIRE() {
    lockdep::on_lock_attempt(mutex_, mutex_->level_, {file, line});
    lock_.lock();
    lockdep::on_lock_acquired(mutex_, mutex_->level_, {file, line},
                              /*via_try=*/false);
  }
#else
  explicit MutexLock(Mutex& mutex) SARBP_ACQUIRE(mutex) : lock_(mutex.m_) {}
  ~MutexLock() SARBP_RELEASE() = default;

  void unlock() SARBP_RELEASE() { lock_.unlock(); }
  void lock() SARBP_ACQUIRE() { lock_.lock(); }
#endif

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
#if SARBP_DEADLOCK_CHECK
  Mutex* mutex_;
#endif
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable usable with MutexLock. The analysis cannot model the
/// release-while-waiting, which is fine: the capability is held before and
/// after every wait, exactly what guarded accesses around it need. Waits
/// deliberately take no predicate — callers write explicit while-loops
/// over guarded state so the analysis sees each access (DESIGN.md §10).
/// Under SARBP_DEADLOCK_CHECK the wait pops the mutex off the per-thread
/// held stack for its duration (a wait releases the lock, so it must not
/// contribute ordering edges) and re-pushes it on wake without recording
/// edges (the held set is unchanged from the original acquisition).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

#if SARBP_DEADLOCK_CHECK
  void wait(MutexLock& lock) {
    const lockdep::Site site = lockdep::on_wait_begin(lock.mutex_);
    cv_.wait(lock.lock_);
    lockdep::on_wait_end(lock.mutex_, lock.mutex_->level_, site);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    const lockdep::Site site = lockdep::on_wait_begin(lock.mutex_);
    const std::cv_status status = cv_.wait_until(lock.lock_, deadline);
    lockdep::on_wait_end(lock.mutex_, lock.mutex_->level_, site);
    return status;
  }

  template <class Rep, class Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    const lockdep::Site site = lockdep::on_wait_begin(lock.mutex_);
    const std::cv_status status = cv_.wait_for(lock.lock_, timeout);
    lockdep::on_wait_end(lock.mutex_, lock.mutex_->level_, site);
    return status;
  }
#else
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <class Rep, class Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }
#endif

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sarbp
