// TaskGroup: one job's worth of tile tasks plus the completion machinery.
//
// A group is the executor's unit of injection — the tasks of one
// image-formation job, decomposed over the (pulse x y x x) cube. Tasks are
// independent closures; the worker that finishes the last one runs the
// group's `on_complete` continuation (the per-job reduction and result
// publication), so the worker that *claimed* the job never has to wait on
// it and can move straight to the next admission token.
//
// Cancellation contract: `checkpoint` (when set) is polled before every
// task, possibly concurrently from several workers — it must be
// thread-safe. The first `false` flips the group's aborted flag; remaining
// tasks are skipped (they still count toward completion so on_complete
// always runs exactly once). A task that throws likewise aborts the group
// and records the first error message.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "exec/steal_deque.h"

namespace sarbp::exec {

/// Test seam: the schedule-exploring model checker (tests/model/) drives
/// the group's private completion machinery through this friend.
struct ModelAccess;

class TaskGroup {
 public:
  /// `group` is the owning group, so a task that detects cancellation
  /// mid-way can abort() the rest of the job.
  using Task = std::function<void(TaskGroup& group)>;

  /// `tasks` must be non-empty. `checkpoint`/`on_complete` may be null.
  TaskGroup(std::vector<Task> tasks, std::function<bool()> checkpoint,
            std::function<void(TaskGroup&)> on_complete,
            std::string label = {})
      : tasks_(std::move(tasks)),
        checkpoint_(std::move(checkpoint)),
        on_complete_(std::move(on_complete)),
        label_(std::move(label)),
        remaining_(static_cast<std::uint32_t>(tasks_.size())),
        units_(tasks_.size()) {
    ensure(!tasks_.empty(), "TaskGroup: needs at least one task");
    for (std::uint32_t i = 0; i < units_.size(); ++i) {
      units_[i] = TaskUnit{this, i};
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] std::vector<TaskUnit>& units() { return units_; }

  [[nodiscard]] bool aborted() const {
    // order: acquire — pairs with abort()'s release so a worker that
    // observes the flag also observes everything the aborting thread wrote
    // before it (e.g. the trip a service RunVerdict recorded in its poll).
    return aborted_.load(std::memory_order_acquire);
  }
  void abort() {
    // order: release — publishes the aborter's preceding writes to workers
    // that observe the flag with acquire (see aborted()).
    aborted_.store(true, std::memory_order_release);
  }

  /// First task-thrown error message; empty for checkpoint aborts.
  [[nodiscard]] std::string error() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return error_;
  }

  [[nodiscard]] bool done() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return done_;
  }

  /// Blocks until on_complete has run (executor-side callers; the service
  /// never waits — its continuation resolves the JobHandle).
  void wait() SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!done_) cv_.wait(lock);
  }

  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout)
      SARBP_EXCLUDES(mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    while (!done_) {
      // timeout: the caller's wait_for budget.
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return done_;
      }
    }
    return true;
  }

  // --- per-group scheduling stats (filled by the executor) ---------------
  [[nodiscard]] std::uint64_t tasks_stolen() const {
    // order: relaxed — statistics counter; no ordering with other state.
    return stolen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double busy_seconds() const {
    // order: relaxed — statistics; readers tolerate slightly-stale sums.
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] double wall_seconds() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return wall_seconds_;
  }

 private:
  friend class TileExecutor;
  friend struct ModelAccess;

  void fail(const std::string& message) SARBP_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (error_.empty()) error_ = message;
    }
    abort();
  }

  std::vector<Task> tasks_;
  std::function<bool()> checkpoint_;
  std::function<void(TaskGroup&)> on_complete_;
  std::string label_;

  std::atomic<std::uint32_t> remaining_;
  std::atomic<bool> aborted_{false};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> busy_ns_{0};

  std::vector<TaskUnit> units_;

  mutable Mutex mutex_{SARBP_LOCK_LEVEL("exec.group")};
  CondVar cv_;
  bool done_ SARBP_GUARDED_BY(mutex_) = false;
  double wall_seconds_ SARBP_GUARDED_BY(mutex_) = 0.0;
  std::string error_ SARBP_GUARDED_BY(mutex_);
  /// Injection timestamp. Written by the injecting thread, read by the
  /// (possibly different) thread that retires the last task; guarded so the
  /// hand-off is explicit rather than riding on the deque publish.
  std::chrono::steady_clock::time_point injected_ SARBP_GUARDED_BY(mutex_){};
};

using GroupPtr = std::shared_ptr<TaskGroup>;

}  // namespace sarbp::exec
