// Work-stealing tile executor: one pool of workers shared by every running
// image-formation job (paper §4 applied to the serving layer — decompose
// each job over the (pulse x y x x) cube and spread the pieces across all
// cores, instead of one job per core).
//
// Scheduling structure: every worker owns a Chase-Lev–style deque
// (steal_deque.h). New jobs arrive as TaskGroups, either pushed by an
// external thread through submit() (FIFO inbox) or pulled by an idle
// worker from the configured `source` callback (the service's
// priority/FIFO claim path). The claiming worker injects the whole group
// into its *own* deque and starts executing; workers whose deques drain
// steal tasks from running jobs. So:
//   - admission order is preserved at *injection* (a worker claims a new
//     job only when its own deque is empty, and prefers claiming over
//     stealing — job-level concurrency first, exactly PR 2's behaviour on
//     many-small-job mixes);
//   - one large job saturates every core (its tasks are the only stealable
//     work, so every otherwise-idle worker converges on it).
//
// Completion is continuation-style: the worker that finishes a group's
// last task runs its on_complete (reduction + result publication), so the
// claimer never blocks on the job it injected.
//
// With `steal` on, a run() caller claims its own group: it injects it into
// the caller slot (one extra deque workers steal from) and runs tasks from
// it until empty, then blocks, so work starts at once. With `steal` off,
// run() only submits and waits.
//
// Every idle worker, with or without a source, parks on one epoch counter
// that submit(), inject(), wake(), drain() and a worker's exit advance; a
// worker parks only while the epoch equals the value read before its last
// scan, so no wakeup is lost and an idle pool makes no wakeups. The source
// never blocks: its owner calls wake() when it has a group to hand out.
//
// Instrumentation (per configured registry):
//   counters   exec.tasks.run, exec.tasks.stolen, exec.tasks.skipped,
//              exec.groups.{submitted,completed,aborted}, exec.steal.fail
//   gauges     exec.workers, exec.deque.depth.<w>
//   histograms exec.group.wall_s, exec.group.parallel_efficiency
//              (busy-seconds / (wall * workers) per group — 1.0 means the
//              whole pool was kept hot for the job's entire wall time; a
//              run() caller sweeping beside it can push it above 1),
//              exec.group.first_steal_s (injection to the start of the
//              group's first stolen task; unstolen groups record nothing)
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/queue.h"
#include "common/thread_annotations.h"
#include "exec/steal_deque.h"
#include "exec/task_group.h"
#include "obs/metrics.h"

namespace sarbp::exec {

/// Per-worker deque capacity: the most tasks one injection pushes without
/// running any inline (make_plan_replay_group's cap). A full deque
/// degrades gracefully: injection runs the overflow task inline.
inline constexpr std::size_t kDequeCapacity = 1024;

struct ExecOptions {
  /// Pool width; 0 = std::thread::hardware_concurrency().
  int workers = 0;
  /// When false, tasks run only on the worker that injected their group —
  /// the serial-run_job baseline the exec_scaling bench compares against.
  bool steal = true;
  /// Metrics sink; null selects the process-global obs::registry(). Must
  /// outlive the executor.
  obs::Registry* metrics = nullptr;
  /// Prepended to every metric name this executor registers ("exec.*" and
  /// the inbox queue gauges). The sharded service gives each per-shard
  /// executor a distinct prefix ("shard.<k>.") so their counters do not
  /// collapse into one series in a shared registry.
  std::string metric_prefix;
  /// Pull-model job source for pool owners (the job service). Called by an
  /// idle worker whose deque is empty; never blocks. Returns the next group
  /// to inject (null when none is ready) and sets *end once no more groups
  /// will ever arrive (admission closed and backlog drained) — after which
  /// workers finish the remaining tasks and exit. After a null return with
  /// *end unset the worker parks until the owner calls wake(), which it
  /// must do whenever the source may have become ready. The callback runs
  /// concurrently on several workers and must be thread-safe.
  std::function<GroupPtr(bool* end)> source;
};

class TileExecutor {
 public:
  explicit TileExecutor(ExecOptions options);
  ~TileExecutor();

  TileExecutor(const TileExecutor&) = delete;
  TileExecutor& operator=(const TileExecutor&) = delete;

  [[nodiscard]] int workers() const { return num_workers_; }
  [[nodiscard]] const ExecOptions& options() const { return options_; }

  /// Push-model injection from any non-worker thread (standalone use:
  /// benches, tests). Groups are handed to workers in submission order.
  /// Returns false once drain() has begun.
  bool submit(GroupPtr group);

  /// Runs `group` to completion from a thread outside the pool. With
  /// `steal` on the caller sweeps the tasks no worker steals, then waits;
  /// with `steal` off, or while another run() holds the caller slot, it is
  /// submit() + group->wait().
  void run(GroupPtr group);

  /// Stops accepting submissions, runs every pending task to completion
  /// (including everything the source still hands out until it reports
  /// end-of-stream), and joins the workers. Idempotent; implied by the
  /// destructor. Owners with a `source` must close it (make it report
  /// *end) before calling drain, or drain never returns.
  void drain();

  /// Advances the idle epoch and wakes every parked worker, so each rescans
  /// the inbox, the source and the deques. A source's owner calls it after
  /// making a group ready.
  void wake();

 private:
  struct WorkerState {
    WorkerState() : deque(kDequeCapacity) {}
    StealDeque deque;
    obs::Gauge* depth_gauge = nullptr;
  };

  void worker_loop(int w);
  /// Pushes `group`'s tasks onto deque `slot`, owned by the calling thread.
  void inject(GroupPtr group, int slot);
  void run_unit(TaskUnit* unit, bool stolen);
  bool try_steal_and_run(int w);
  [[nodiscard]] bool all_deques_empty() const;

  ExecOptions options_;
  obs::Registry* metrics_;
  int num_workers_;

  /// One deque per worker, then the caller slot at index num_workers_.
  std::vector<std::unique_ptr<WorkerState>> states_;
  /// Held by the run() caller that owns the caller slot's deque.
  std::atomic<bool> caller_slot_busy_{false};
  /// Push-model injections, FIFO. Closed by drain().
  BoundedQueue<GroupPtr> inbox_;
  std::atomic<bool> draining_{false};
  /// Latched once the source reports end-of-stream.
  std::atomic<bool> source_done_{false};

  /// Keeps injected groups alive until their last task finishes (deques
  /// hold raw TaskUnit pointers into the group).
  Mutex live_mutex_{SARBP_LOCK_LEVEL("exec.live")};
  std::unordered_map<TaskGroup*, GroupPtr> live_ SARBP_GUARDED_BY(live_mutex_);

  /// Idle workers park here until the epoch moves (wake).
  Mutex idle_mutex_{SARBP_LOCK_LEVEL("exec.idle")};
  CondVar idle_cv_;
  std::uint64_t idle_epoch_ SARBP_GUARDED_BY(idle_mutex_) = 0;

  std::vector<std::thread> threads_;

  obs::Counter* tasks_run_ = nullptr;
  obs::Counter* tasks_stolen_ = nullptr;
  obs::Counter* tasks_skipped_ = nullptr;
  obs::Counter* groups_submitted_ = nullptr;
  obs::Counter* groups_completed_ = nullptr;
  obs::Counter* groups_aborted_ = nullptr;
  obs::Counter* steal_fail_ = nullptr;
  obs::Histogram* group_wall_s_ = nullptr;
  obs::Histogram* group_efficiency_ = nullptr;
  obs::Histogram* group_first_steal_s_ = nullptr;
};

}  // namespace sarbp::exec
