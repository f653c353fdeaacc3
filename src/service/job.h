// Job model of the image-formation service: the request envelope, the
// QUEUED -> RUNNING -> {DONE, FAILED, CANCELLED, EXPIRED} lifecycle, and
// the handle a submitter holds while the job moves through the scheduler.
//
// The lifecycle is three steps, and every caller uses them (the local
// formation path, custom jobs, the shard router's dispatch, each rank's
// part and the gather): JobHandle::dequeue, a RunVerdict polled between
// ASR blocks, and JobHandle::resolve. Only this file and job.cpp move a
// handle between states (the `job-resolve` lint rule).
//
// Thread-safety contract: state() is a lock-free read; transitions happen
// under the handle's mutex so a terminal state and its JobResult become
// visible atomically to wait()/result(), and the first terminal
// transition wins. cancel() is safe from any thread at any point in the
// lifecycle — a QUEUED job transitions immediately, a RUNNING job is
// interrupted at the next RunVerdict::poll, and cancelling a terminal job
// is a no-op. A RunVerdict may be polled from many workers at once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "asr/block_plan.h"
#include "common/thread_annotations.h"
#include "common/grid2d.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "sim/phase_history.h"

namespace sarbp::exec {
class TaskGroup;
using GroupPtr = std::shared_ptr<TaskGroup>;
}  // namespace sarbp::exec

namespace sarbp::service {

/// Scheduling class. Strict priority: the scheduler never runs a lower
/// class while a higher one has work; FIFO within a class.
enum class Priority { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kNumPriorities = 3;

[[nodiscard]] constexpr const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

enum class JobState {
  kQueued,     ///< admitted, waiting for a worker
  kRunning,    ///< a worker is forming the image
  kDone,       ///< image formed; JobResult::image is valid
  kFailed,     ///< formation threw; JobResult::error explains
  kCancelled,  ///< cancel() won the race (queued or between ASR blocks)
  kExpired,    ///< the deadline passed before or during formation
};

[[nodiscard]] constexpr const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Hand-off the service gives a custom job's group factory at dequeue
/// time. `checkpoint` is the job's RunVerdict::poll — the factory passes
/// it to exec::make_formation_group, which polls it once per item as the
/// plan replay does and aborts the group on false. `finish` resolves the
/// JobHandle exactly once; the factory's completion continuation must
/// call it with the outcome it proposes (kDone on success, kFailed on
/// abort — a tripped verdict's kCancelled/kExpired overrides it) and
/// receives back the state the job actually resolved to, so callers can
/// classify outcomes without racing the handle. The factory cuts its own
/// tasks (a streaming update runs one per block, as plan replay does).
struct CustomJobContext {
  std::function<bool()> checkpoint;
  std::function<JobState(JobState, const std::string&)> finish;
};

/// Builds the task group of a custom (long-running-type) job when a worker
/// claims it. Returning null means the factory resolved the job itself
/// (it must still call ctx.finish); throwing fails the job (kFailed with
/// the exception's message).
using CustomGroupFactory =
    std::function<exec::GroupPtr(const CustomJobContext& ctx)>;

/// One image-formation request. `pulses` is shared so many requests over
/// the same collection (the repeated-scene case) alias one phase history.
struct ImageFormationRequest {
  geometry::ImageGrid grid{0, 0, 1.0};
  /// Sub-rectangle of the grid to form; empty (default) means the full
  /// grid. Plans are keyed per region, so tiled sub-image requests each
  /// get their own cached plan.
  Region region;
  std::shared_ptr<const sim::PhaseHistory> pulses;
  /// ASR approximation block (accuracy knob, paper §3.5).
  Index asr_block_w = asr::kDefaultBlock;
  Index asr_block_h = asr::kDefaultBlock;
  Priority priority = Priority::kNormal;
  /// Absolute completion deadline. Checked at dequeue and between ASR
  /// blocks while running; a miss yields kExpired, not a partial image.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Free-form submitter label (multi-tenant accounting in traces/logs).
  std::string tenant;
  /// Non-null marks a *custom* job: instead of the cached-plan replay, the
  /// service calls this factory at dequeue and runs whatever group it
  /// returns — the seam long-running job types (streaming updates) ride
  /// through. Custom jobs keep the whole lifecycle (fair queueing,
  /// admission, cancel/deadline checkpoints) but publish their results
  /// through their own channel, so JobResult::image stays empty on kDone.
  /// `pulses` may be null for a custom job (cost defaults to 1 in the fair
  /// scheduler); when set it is the SFQ cost basis, exactly as for
  /// formation jobs. Rejected kInvalidRequest in sharded mode — ranks
  /// cannot replay an opaque factory.
  CustomGroupFactory custom;
  /// Called (with no service or handle locks held) when a custom job
  /// resolves terminally *without* the factory ever running — cancelled
  /// while queued, deadline already passed at dequeue, or dropped at
  /// drain. Exactly one of {factory invocation, this callback} happens
  /// for every admitted custom job, so submitters can track in-flight
  /// work without polling. Ignored for non-custom jobs.
  std::function<void(JobState)> custom_abandoned;

  [[nodiscard]] Region effective_region() const {
    return region.empty() ? Region{0, 0, grid.width(), grid.height()} : region;
  }
};

/// Outcome of a finished job. `image` covers the request's effective
/// region (origin at the region's corner) and is valid only for kDone.
struct JobResult {
  JobState state = JobState::kFailed;
  Grid2D<CFloat> image{0, 0};
  std::string error;
  bool plan_cache_hit = false;
  /// The plan lookup was an unkept miss: no plan was built, and the sweep
  /// built its tables on the fly (service/plan_cache.h).
  bool plan_unkept = false;
  double queue_seconds = 0.0;    ///< admission -> dequeue
  /// Plan lookup; on a kept miss also the plan skeleton. Zero on a
  /// sharded job, whose ranks look up their bands' plans.
  double setup_seconds = 0.0;
  /// Block sweeps; on a miss also the table builds, which run inside the
  /// sweep tasks.
  double compute_seconds = 0.0;
  double latency_seconds = 0.0;  ///< admission -> terminal
  /// Global completion order (0-based) across the owning service — the
  /// observable the priority tests assert on.
  std::uint64_t completion_index = 0;
};

/// What JobHandle::resolve stamps into the JobResult (see there for each
/// field's meaning); `image` is published only on kDone.
struct JobStamps {
  double queue_seconds = 0.0;
  double setup_seconds = 0.0;
  double compute_seconds = 0.0;
  bool plan_cache_hit = false;
  bool plan_unkept = false;
  std::string error;
  Grid2D<CFloat> image{0, 0};
};

class ImageFormationService;
class ShardRouter;
class RunVerdict;

/// Shared handle to one submitted job. The service keeps it queued; the
/// submitter polls or waits on it. Destroying the service resolves every
/// handle (drain), so wait() never blocks on a dead service.
class JobHandle {
 public:
  [[nodiscard]] JobState state() const {
    // order: acquire — pairs with finish_locked's release store so a
    // lock-free reader that observes a terminal state also observes the
    // JobResult written before it (result() then reads it under the lock).
    return state_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Priority priority() const { return request_.priority; }
  [[nodiscard]] const std::string& tenant() const { return request_.tenant; }
  /// The request is immutable after submission, so exposing it is safe;
  /// the scheduler reads its geometry for cost-based fair queueing.
  [[nodiscard]] const ImageFormationRequest& request() const {
    return request_;
  }

  /// Requests cancellation. A QUEUED job transitions to kCancelled
  /// immediately; a RUNNING job transitions at the next RunVerdict::poll.
  /// Returns false when the job was already terminal (too late to cancel).
  bool cancel() SARBP_EXCLUDES(mutex_) {
    // order: release — pairs with the workers' acquire poll in the
    // inter-block checkpoint; nothing precedes it that matters, but the
    // flag must not sink below the state checks under the lock.
    cancel_requested_.store(true, std::memory_order_release);
    MutexLock lock(mutex_);
    if (state() != JobState::kQueued && state() != JobState::kRunning) {
      return false;
    }
    if (state() == JobState::kQueued) {
      finish_locked(JobState::kCancelled);
    }
    return true;  // running: the next verdict poll observes the flag
  }

  /// Blocks until the job reaches a terminal state; returns the result.
  const JobResult& wait() SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!is_terminal(state())) cv_.wait(lock);
    return result_;
  }

  /// Bounded wait; true when the job is terminal within `timeout`.
  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout)
      SARBP_EXCLUDES(mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    while (!is_terminal(state())) {
      // timeout: the caller's wait_for budget.
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return is_terminal(state());
      }
    }
    return true;
  }

  /// Terminal result; call only after wait()/wait_for() succeeded (or
  /// state() reported a terminal state).
  [[nodiscard]] const JobResult& result() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return result_;
  }

 private:
  friend class ImageFormationService;  // submit, dequeue, resolve
  friend class ShardRouter;            // dispatch's dequeue, gather's resolve
  friend class RunVerdict;             // cancel_requested

  /// Stamps the admission time. The registry and the sequence must outlive
  /// the handle's lifecycle; the service drains before it destroys them.
  JobHandle(ImageFormationRequest req, obs::Registry* metrics,
            std::atomic<std::uint64_t>* completion_seq);

  [[nodiscard]] bool cancel_requested() const {
    // order: acquire — pairs with cancel()'s release store.
    return cancel_requested_.load(std::memory_order_acquire);
  }

  /// Lifecycle step 1, run by whoever claims the job from the scheduler.
  /// Records service.job.queue_s and moves QUEUED -> RUNNING, returning
  /// the queue wait. A job already terminal (cancelled while queued,
  /// dropped at drain) or past its deadline (resolved kExpired, "deadline
  /// passed while queued") is not started: the custom_abandoned callback
  /// runs, with no lock held, and the result is nullopt.
  [[nodiscard]] std::optional<double> dequeue() SARBP_EXCLUDES(mutex_);

  /// Lifecycle step 3: resolves the job to `outcome` and stamps the
  /// queue/setup/compute seconds, the cache hit, the error and (kDone
  /// only) the image — unless the job is already terminal, since the
  /// first transition wins. Returns the state the job ended in.
  JobState resolve(JobState outcome, JobStamps stamps) SARBP_EXCLUDES(mutex_);

  /// The one terminal transition: stamps latency and completion order,
  /// bumps the job metrics, publishes the state and wakes waiters. Caller
  /// holds mutex_ and has verified the state is not yet terminal.
  /// Notifies while still holding the lock: a waiter may destroy this
  /// handle the moment it observes the terminal state, so the condition
  /// variable must not be touched after the mutex is released (same
  /// discipline as the executor's group completion; see
  /// tests/model/test_model.cpp, UseAfterFree).
  void finish_locked(JobState terminal) SARBP_REQUIRES(mutex_);

  ImageFormationRequest request_;
  std::atomic<JobState> state_{JobState::kQueued};
  std::atomic<bool> cancel_requested_{false};
  mutable Mutex mutex_{SARBP_LOCK_LEVEL("service.job")};
  CondVar cv_;
  JobResult result_ SARBP_GUARDED_BY(mutex_);
  const std::chrono::steady_clock::time_point submitted_;
  obs::Registry* const metrics_;
  std::atomic<std::uint64_t>* const completion_seq_;
};

/// Lifecycle step 2: the first-trip-wins verdict of one run — a local
/// formation job, a custom job, or one shard part of a job.
class RunVerdict {
 public:
  /// `hook` (the service's inter-block test hook; may be empty) must
  /// outlive the verdict.
  RunVerdict(std::shared_ptr<JobHandle> job, const std::function<void()>& hook)
      : job_(std::move(job)), hook_(hook) {}

  /// The cooperative checkpoint, polled before every ASR block from any
  /// worker: runs the hook, then trips kCancelled ("cancelled while
  /// running") once cancel() was called, or kExpired ("deadline passed
  /// while running") past the deadline. False when this poll tripped.
  [[nodiscard]] bool poll();

  /// The run's outcome: the first trip if any poll tripped (and `*error`
  /// becomes its message), else `proposed` with `*error` unchanged.
  [[nodiscard]] JobState settle(JobState proposed, std::string* error) const;

  /// settle() of a finished group's proposal: kFailed with the group's
  /// error (`fallback` when a task recorded none) if it aborted, else
  /// kDone.
  [[nodiscard]] JobState settle(const exec::TaskGroup& group,
                                const char* fallback,
                                std::string* error) const;

 private:
  std::shared_ptr<JobHandle> job_;
  const std::function<void()>& hook_;
  /// kRunning until the first poll trips.
  std::atomic<JobState> tripped_{JobState::kRunning};
};

}  // namespace sarbp::service
