#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace sarbp::exec {

namespace {

int resolve_workers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

TileExecutor::TileExecutor(ExecOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::registry()),
      num_workers_(resolve_workers(options_.workers)),
      inbox_(std::max<std::size_t>(std::size_t{64},
                                   static_cast<std::size_t>(num_workers_) * 4),
             // c_str of a full-expression temporary: the queue ctor only
             // reads the name, it does not retain it.
             (options_.metric_prefix + "exec.inbox").c_str(), metrics_) {
  ensure(options_.deque_capacity >= 2, "TileExecutor: deque_capacity too small");
  if constexpr (obs::kEnabled) {
    const std::string& pre = options_.metric_prefix;
    tasks_run_ = &metrics_->counter(pre + "exec.tasks.run");
    tasks_stolen_ = &metrics_->counter(pre + "exec.tasks.stolen");
    tasks_skipped_ = &metrics_->counter(pre + "exec.tasks.skipped");
    groups_submitted_ = &metrics_->counter(pre + "exec.groups.submitted");
    groups_completed_ = &metrics_->counter(pre + "exec.groups.completed");
    groups_aborted_ = &metrics_->counter(pre + "exec.groups.aborted");
    steal_fail_ = &metrics_->counter(pre + "exec.steal.fail");
    group_wall_s_ = &metrics_->histogram(pre + "exec.group.wall_s");
    group_efficiency_ =
        &metrics_->histogram(pre + "exec.group.parallel_efficiency");
    group_first_steal_s_ =
        &metrics_->histogram(pre + "exec.group.first_steal_s");
    metrics_->gauge(pre + "exec.workers").set(num_workers_);
  }
  states_.reserve(static_cast<std::size_t>(num_workers_) + 1);
  for (int w = 0; w <= num_workers_; ++w) {
    auto state = std::make_unique<WorkerState>(options_.deque_capacity);
    if (obs::kEnabled && w < num_workers_) {
      state->depth_gauge = &metrics_->gauge(
          options_.metric_prefix + "exec.deque.depth." + std::to_string(w));
    }
    states_.push_back(std::move(state));
  }
  threads_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

TileExecutor::~TileExecutor() { drain(); }

bool TileExecutor::submit(GroupPtr group) {
  ensure(group != nullptr, "TileExecutor::submit: null group");
  // order: acquire — pairs with drain()'s release store; a submitter that
  // sees the flag also sees the inbox close that follows it.
  if (draining_.load(std::memory_order_acquire)) return false;
  const bool accepted = inbox_.push(std::move(group));
  if (accepted) wake();
  return accepted;
}

void TileExecutor::run(GroupPtr group) {
  ensure(group != nullptr, "TileExecutor::run: null group");
  // order: acquire — pairs with drain()'s release store.
  ensure(!draining_.load(std::memory_order_acquire),
         "TileExecutor::run: executor is draining");
  // Keep our own reference across the wait: the last-finishing thread
  // releases the executor's ownership, and the group (with the condition
  // variable wait() blocks on) must not die under us.
  GroupPtr keep = group;
  // order: acquire — pairs with the release below, so this caller's pushes
  // to the slot's deque follow the previous owner's last pop.
  if (options_.steal &&
      !caller_slot_busy_.exchange(true, std::memory_order_acquire)) {
    WorkerState& slot = *states_.back();
    inject(std::move(group), num_workers_);
    while (TaskUnit* unit = slot.deque.pop()) run_unit(unit, /*stolen=*/false);
    // order: release — see the acquire above.
    caller_slot_busy_.store(false, std::memory_order_release);
  } else {
    ensure(submit(std::move(group)), "TileExecutor::run: executor is draining");
  }
  keep->wait();
}

void TileExecutor::drain() {
  // order: release — submitters that observe the flag (acquire) must also
  // observe the closed inbox, so no group is silently dropped.
  draining_.store(true, std::memory_order_release);
  inbox_.close();
  wake();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void TileExecutor::wake() {
  {
    MutexLock lock(idle_mutex_);
    ++idle_epoch_;
  }
  idle_cv_.notify_all();
}

void TileExecutor::inject(GroupPtr group, int slot) {
  TaskGroup* g = group.get();
  {
    // injected_ is read by whichever thread retires the last task; guard
    // the hand-off instead of relying on the deque publish for ordering.
    MutexLock lock(g->mutex_);
    g->injected_ = std::chrono::steady_clock::now();
  }
  if (groups_submitted_) groups_submitted_->add();
  {
    MutexLock lock(live_mutex_);
    live_.emplace(g, std::move(group));
  }
  WorkerState& state = *states_[static_cast<std::size_t>(slot)];
  for (TaskUnit& unit : g->units()) {
    if (!state.deque.push(&unit)) {
      // Deque full: degrade gracefully by running the overflow task here.
      run_unit(&unit, /*stolen=*/false);
    }
  }
  if (state.depth_gauge) {
    state.depth_gauge->set(
        static_cast<std::int64_t>(state.deque.size_approx()));
  }
  // New stealable tasks: wake parked peers.
  wake();
}

void TileExecutor::run_unit(TaskUnit* unit, bool stolen) {
  TaskGroup* g = unit->group;
  if (stolen) {
    // order: relaxed — statistics counter; the first increment alone
    // records the join time.
    if (g->stolen_.fetch_add(1, std::memory_order_relaxed) == 0 &&
        group_first_steal_s_) {
      const auto now = std::chrono::steady_clock::now();
      MutexLock lock(g->mutex_);
      group_first_steal_s_->record(
          std::chrono::duration<double>(now - g->injected_).count());
    }
    if (tasks_stolen_) tasks_stolen_->add();
  }
  bool ran = false;
  if (!g->aborted()) {
    // Per-task cancellation checkpoint: polled across the pool, so a
    // cancel/deadline lands within one task's latency no matter how many
    // workers the job is spread over.
    if (g->checkpoint_ && !g->checkpoint_()) {
      g->abort();
    } else if (!g->aborted()) {
      const auto start = std::chrono::steady_clock::now();
      try {
        g->tasks_[unit->index](*g);
        ran = true;
      } catch (const std::exception& e) {
        g->fail(e.what());
      } catch (...) {
        g->fail("task threw a non-standard exception");
      }
      g->busy_ns_.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()),
          // order: relaxed — statistics sum; the acq_rel completion
          // decrement below orders it before the continuation reads it.
          std::memory_order_relaxed);
    }
  }
  if (ran) {
    if (tasks_run_) tasks_run_->add();
  } else if (tasks_skipped_) {
    tasks_skipped_->add();
  }

  // Skipped tasks still count toward completion so on_complete runs exactly
  // once, after every unit has been claimed and retired.
  // order: acq_rel — every worker's task effects happen-before the last
  // finisher's continuation (release on the decrement, acquire on reading
  // the final value); this is the reduction's publication edge.
  if (g->remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last task: run the continuation on this worker.
  GroupPtr self;
  {
    MutexLock lock(live_mutex_);
    auto it = live_.find(g);
    if (it != live_.end()) {
      self = std::move(it->second);
      live_.erase(it);
    }
  }
  double wall = 0.0;
  {
    MutexLock lock(g->mutex_);
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         g->injected_)
               .count();
    g->wall_seconds_ = wall;
  }
  if (g->on_complete_) {
    try {
      g->on_complete_(*g);
    } catch (const std::exception& e) {
      g->fail(std::string("on_complete: ") + e.what());
    } catch (...) {
      g->fail("on_complete threw a non-standard exception");
    }
  }
  if (g->aborted()) {
    if (groups_aborted_) groups_aborted_->add();
  } else if (groups_completed_) {
    groups_completed_->add();
  }
  if (group_wall_s_) group_wall_s_->record(wall);
  if (group_efficiency_ && wall > 0.0) {
    group_efficiency_->record(g->busy_seconds() /
                              (wall * static_cast<double>(num_workers_)));
  }
  {
    // Notify while holding the lock: a waiter may destroy the group the
    // moment it observes done_, so the condition variable must not be
    // touched after the unlock. The model checker proves the unlocked
    // variant loses this race (tests/model/test_model.cpp, UseAfterFree).
    MutexLock lock(g->mutex_);
    g->done_ = true;
    g->cv_.notify_all();
  }
  // `self` releases the executor's ownership here; waiters hold their own
  // GroupPtr, and the service continuation has already published results.
}

bool TileExecutor::try_steal_and_run(int w) {
  // Rotate the starting victim by thief id so thieves spread out instead of
  // all hammering worker 0. The caller slot is a victim like any worker.
  const int slots = static_cast<int>(states_.size());
  for (int i = 1; i < slots; ++i) {
    const int victim = (w + i) % slots;
    WorkerState& vs = *states_[static_cast<std::size_t>(victim)];
    if (TaskUnit* unit = vs.deque.steal()) {
      if (vs.depth_gauge) {
        vs.depth_gauge->set(
            static_cast<std::int64_t>(vs.deque.size_approx()));
      }
      run_unit(unit, /*stolen=*/true);
      return true;
    }
  }
  if (steal_fail_) steal_fail_->add();
  return false;
}

bool TileExecutor::all_deques_empty() const {
  for (const auto& state : states_) {
    if (state->deque.size_approx() != 0) return false;
  }
  return true;
}

void TileExecutor::worker_loop(int w) {
  WorkerState& state = *states_[static_cast<std::size_t>(w)];
  // Idle epoch read at the last wakeup, before this pass's scan: work
  // published after it has advanced the epoch, so step 5 does not park.
  std::uint64_t seen = 0;
  while (true) {
    // 1. Drain our own deque (LIFO — stay cache-hot on the job we claimed).
    while (TaskUnit* unit = state.deque.pop()) {
      run_unit(unit, /*stolen=*/false);
    }
    if (state.depth_gauge) state.depth_gauge->set(0);

    // 2. Claim new work before stealing: job-level concurrency first, so a
    // burst of small jobs spreads one-per-worker exactly as in the
    // pre-executor service. Claiming only with an empty deque preserves
    // admission order at injection.
    if (auto group = inbox_.try_pop()) {
      inject(std::move(*group), w);
      continue;
    }
    // order: acquire/release on source_done_ — the latch pairs a worker's
    // end-of-stream observation with everything the source wrote before
    // reporting it (drain sees a consistent backlog).
    if (options_.source && !source_done_.load(std::memory_order_acquire)) {
      bool end = false;
      GroupPtr group = options_.source(&end);
      // order: release — see the source_done_ note above.
      if (end) source_done_.store(true, std::memory_order_release);
      if (group) {
        inject(std::move(group), w);
        continue;
      }
    }

    // 3. No new job ready: steal a task from a running job.
    if (options_.steal && try_steal_and_run(w)) continue;

    // 4. Nothing anywhere. Exit when no more work can appear. The check is
    // approximate (a peer mid-claim has an empty deque until it injects),
    // but that is benign: the claimer itself runs every task it injects.
    const bool no_more_sources =
        // order: acquire — see the source_done_ note above.
        (!options_.source || source_done_.load(std::memory_order_acquire)) &&
        inbox_.closed();
    if (no_more_sources && inbox_.size() == 0 && all_deques_empty()) break;

    // 5. Park until the idle epoch moves past `seen` (submit/inject/wake/
    // drain/a peer's exit). A steal that lost its race while tasks remain
    // rescans instead of parking.
    if (!options_.steal || all_deques_empty()) {
      MutexLock lock(idle_mutex_);
      while (idle_epoch_ == seen) idle_cv_.wait(lock);
      seen = idle_epoch_;
    }
  }
  // Peers parked on a deque this worker just emptied re-run the exit check.
  wake();
}

}  // namespace sarbp::exec
