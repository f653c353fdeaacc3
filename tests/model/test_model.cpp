// Schedule-exploring model checks for the concurrency core.
//
// Each test drives real production code (BasicStealDeque instantiated with
// the instrumented atomics policy, TaskGroup's completion machinery through
// the ModelAccess seam) or a distilled model of a production protocol under
// the virtual scheduler in model_sync.h, then explores many distinct
// interleavings: an exhaustive DFS over the first few scheduling choices
// plus a large batch of seeded random tails. Invariants are asserted inside
// every execution, so a violation pinpoints the schedule (hash) that broke.
//
// The suite also checks the checker: intentionally buggy variants — an
// owner pop without the last-item CAS, a notify-after-unlock completion
// path, a classify-after-publish streaming tail, an abort-blind mailbox
// wait, and an idle worker that samples the wake epoch after its scan —
// MUST produce a violation (or a detected deadlock) in some explored
// schedule, while the shipped fixed variants must stay clean across the
// same exploration.
#include "model_sync.h"

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "exec/steal_deque.h"
#include "exec/task_group.h"

namespace sarbp::exec {

/// Friend seam (declared in task_group.h): lets the model checker drive
/// TaskGroup's private failure/retire machinery exactly the way
/// TileExecutor::run_unit does, without spinning up real workers.
struct ModelAccess {
  static void fail(TaskGroup& g, const std::string& message) {
    g.fail(message);
  }

  /// Replicates the executor's retire path for one task: the thread whose
  /// decrement hits zero runs on_complete and publishes done_ with the
  /// notify under the lock. Returns true for that last finisher.
  static bool retire(TaskGroup& g) {
    if (g.remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return false;
    }
    if (g.on_complete_) g.on_complete_(g);
    MutexLock lock(g.mutex_);
    g.done_ = true;
    g.cv_.notify_all();
    return true;
  }
};

}  // namespace sarbp::exec

namespace sarbp::model {
namespace {

using Result = VirtualScheduler::Result;

// ---------------------------------------------------------------------------
// explore(): the two-strategy schedule explorer.

struct Exploration {
  int executions = 0;
  int deadlocks = 0;
  int truncated = 0;
  int violations = 0;  ///< use-after-destroy poison hits
  std::set<std::uint64_t> schedules;
};

/// A runner builds FRESH state, runs one execution under (forced, seed),
/// asserts its invariants, and returns the scheduler's Result.
using Runner =
    std::function<Result(const std::vector<int>& forced, std::uint64_t seed)>;

void record(Exploration& out, const Result& r) {
  ++out.executions;
  out.deadlocks += r.deadlock ? 1 : 0;
  out.truncated += r.truncated ? 1 : 0;
  out.violations += r.use_after_destroy ? 1 : 0;
  out.schedules.insert(r.hash);
}

/// Exhaustive over the first `depth_left` choice points: runs the prefix,
/// then recurses into every alternative at the next choice point. Parent
/// prefixes re-run one child's schedule redundantly; that only costs time.
void dfs(const Runner& run, std::vector<int>& prefix, int depth_left,
         std::uint64_t seed, Exploration& out) {
  const Result r = run(prefix, seed);
  record(out, r);
  const std::size_t pos = prefix.size();
  if (depth_left == 0 || pos >= r.branching.size()) return;
  for (int c = 0; c < static_cast<int>(r.branching[pos]); ++c) {
    prefix.push_back(c);
    dfs(run, prefix, depth_left - 1, seed, out);
    prefix.pop_back();
  }
}

/// DFS over the first `dfs_depth` choices, then `random_runs` seeded random
/// tails. Deterministic for fixed (dfs_depth, random_runs, base_seed).
Exploration explore(const Runner& run, int dfs_depth, int random_runs,
                    std::uint64_t base_seed = 0x5a3bULL) {
  Exploration out;
  std::vector<int> prefix;
  dfs(run, prefix, dfs_depth, base_seed, out);
  for (int i = 0; i < random_runs; ++i) {
    record(out, run({}, base_seed + 1 + static_cast<std::uint64_t>(i)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// 1. The real deque, model-instrumented: linearizability of pop/steal.

constexpr int kDequeItems = 4;

/// One execution of owner (push all, pop 3) vs two thieves (2 steals each)
/// over the production Chase-Lev algorithm. Asserts exactly-once delivery:
/// every pushed item is claimed by exactly one thread or still in the deque.
Result deque_round(const std::vector<int>& forced, std::uint64_t seed) {
  exec::BasicStealDeque<ModelAtomicPolicy> deque(kDequeItems);
  std::array<exec::TaskUnit, kDequeItems> units{};
  std::array<int, kDequeItems> claims{};
  for (int i = 0; i < kDequeItems; ++i) {
    units[static_cast<std::size_t>(i)] =
        exec::TaskUnit{nullptr, static_cast<std::uint32_t>(i)};
  }
  auto claim = [&](exec::TaskUnit* unit) {
    if (unit != nullptr) ++claims[unit->index];
  };

  VirtualScheduler sched(forced, seed);
  const Result result = sched.run({
      [&] {  // owner
        for (auto& unit : units) EXPECT_TRUE(deque.push(&unit));
        claim(deque.pop());
        claim(deque.pop());
        claim(deque.pop());
      },
      [&] {  // thief 1
        claim(deque.steal());
        claim(deque.steal());
      },
      [&] {  // thief 2
        claim(deque.steal());
        claim(deque.steal());
      },
  });
  EXPECT_FALSE(result.deadlock) << "lock-free code cannot deadlock";
  EXPECT_FALSE(result.truncated);

  // Quiescent now (run() joined everything): drain what nobody claimed.
  while (exec::TaskUnit* unit = deque.steal()) claim(unit);
  for (int i = 0; i < kDequeItems; ++i) {
    EXPECT_EQ(claims[static_cast<std::size_t>(i)], 1)
        << "item " << i << " delivered " << claims[static_cast<std::size_t>(i)]
        << " times under schedule hash " << result.hash;
  }
  return result;
}

TEST(ModelDeque, ExactlyOnceAcrossTenThousandSchedules) {
  // DFS over the first choices, then random tails until the distinct-
  // schedule count clears the bar (deterministic: the tail loop always runs
  // in the same seed order and the bar is checked at fixed points).
  Exploration out;
  std::vector<int> prefix;
  dfs(deque_round, prefix, /*depth_left=*/5, 0x5a3bULL, out);
  const int kTarget = 10000;
  const int kMaxRandom = 30000;
  int i = 0;
  for (; i < kMaxRandom && static_cast<int>(out.schedules.size()) < kTarget;
       ++i) {
    record(out, deque_round({}, 0x900d + static_cast<std::uint64_t>(i)));
  }
  EXPECT_GE(static_cast<int>(out.schedules.size()), kTarget)
      << "only " << out.schedules.size() << " distinct schedules after "
      << out.executions << " executions";
  EXPECT_EQ(out.deadlocks, 0);
  EXPECT_EQ(out.truncated, 0);
  EXPECT_EQ(out.violations, 0);
}

// ---------------------------------------------------------------------------
// 2. Checking the checker: a deque whose pop skips the last-item CAS MUST
// hand out some item twice in some schedule.

/// Chase-Lev with the classic bug: pop() takes the last item without racing
/// thieves through the CAS on top_.
class BuggyPopDeque {
 public:
  explicit BuggyPopDeque(std::size_t capacity) : cells_(capacity) {}

  bool push(exec::TaskUnit* unit) {
    const std::int64_t b = bottom_.load();
    const std::int64_t t = top_.load();
    if (b - t >= static_cast<std::int64_t>(cells_.size())) return false;
    cells_[static_cast<std::size_t>(b) % cells_.size()].store(unit);
    bottom_.store(b + 1);
    return true;
  }

  exec::TaskUnit* pop() {
    const std::int64_t b = bottom_.load() - 1;
    bottom_.store(b);
    const std::int64_t t = top_.load();
    if (t > b) {
      bottom_.store(b + 1);
      return nullptr;
    }
    // BUG: when t == b this is the last item and a thief may be claiming it
    // concurrently; the real algorithm must CAS top_ here.
    return cells_[static_cast<std::size_t>(b) % cells_.size()].load();
  }

  exec::TaskUnit* steal() {
    std::int64_t t = top_.load();
    const std::int64_t b = bottom_.load();
    if (t >= b) return nullptr;
    exec::TaskUnit* unit = cells_[static_cast<std::size_t>(t) % cells_.size()].load();
    if (!top_.compare_exchange_strong(t, t + 1)) return nullptr;
    return unit;
  }

 private:
  std::vector<ModelAtomic<exec::TaskUnit*>> cells_;
  ModelAtomic<std::int64_t> top_{0};
  ModelAtomic<std::int64_t> bottom_{0};
};

TEST(ModelDeque, CheckerCatchesMissingLastItemCas) {
  int duplicated_runs = 0;
  auto round = [&](const std::vector<int>& forced, std::uint64_t seed) {
    BuggyPopDeque deque(4);
    exec::TaskUnit unit{nullptr, 0};
    std::array<int, 2> claims{};  // [owner, thief]
    VirtualScheduler sched(forced, seed);
    const Result result = sched.run({
        [&] {
          EXPECT_TRUE(deque.push(&unit));
          if (deque.pop() != nullptr) ++claims[0];
        },
        [&] {
          if (deque.steal() != nullptr) ++claims[1];
        },
    });
    if (claims[0] + claims[1] > 1) ++duplicated_runs;
    return result;
  };
  const Exploration out = explore(round, /*dfs_depth=*/8, /*random_runs=*/200);
  EXPECT_GT(duplicated_runs, 0)
      << "the checker failed to surface the known owner/thief race in "
      << out.executions << " executions";
}

// ---------------------------------------------------------------------------
// 3. The PR 3 use-after-free class: completion must notify UNDER the lock,
// because the waiter may destroy the condition variable the moment it
// observes done. The buggy variant (notify after unlock) is exactly the
// code this repo shipped before the fix; the model checker proves the fix
// is load-bearing by finding the poisoned access in the buggy variant and
// finding none in the fixed one.

template <bool kNotifyUnderLock>
struct CompletionGate {
  ModelMutex mu;
  ModelCondVar cv;
  bool done = false;

  void complete() {
    if constexpr (kNotifyUnderLock) {
      mu.lock();
      done = true;
      cv.notify_all();
      mu.unlock();
    } else {
      mu.lock();
      done = true;
      mu.unlock();
      cv.notify_all();  // BUG: gate may already be destroyed by the waiter
    }
  }

  /// The waiter owns the gate and tears it down as soon as it sees done —
  /// exactly what TileExecutor::run's caller does with its TaskGroup.
  void wait_and_destroy() {
    mu.lock();
    while (!done) cv.wait(mu);
    mu.unlock();
    cv.destroy();
    mu.destroy();
  }
};

template <bool kNotifyUnderLock>
Exploration explore_gate() {
  auto round = [](const std::vector<int>& forced, std::uint64_t seed) {
    auto gate = std::make_unique<CompletionGate<kNotifyUnderLock>>();
    VirtualScheduler sched(forced, seed);
    return sched.run({
        [&] { gate->complete(); },
        [&] { gate->wait_and_destroy(); },
    });
  };
  return explore(round, /*dfs_depth=*/10, /*random_runs=*/300);
}

TEST(ModelCompletion, NotifyAfterUnlockIsAUseAfterFree) {
  const Exploration out = explore_gate</*kNotifyUnderLock=*/false>();
  EXPECT_GT(out.violations, 0)
      << "the pre-fix notify-after-unlock path should touch the destroyed "
         "condvar in some schedule ("
      << out.executions << " explored)";
}

TEST(ModelCompletion, NotifyUnderLockNeverTouchesDestroyedGate) {
  const Exploration out = explore_gate</*kNotifyUnderLock=*/true>();
  EXPECT_EQ(out.violations, 0);
  EXPECT_EQ(out.deadlocks, 0);
  EXPECT_EQ(out.truncated, 0);
}

// ---------------------------------------------------------------------------
// 4. TaskGroup completion/abort races, driven through the ModelAccess seam:
// on_complete runs exactly once (on the last retirer), and concurrent
// failures keep the FIRST error (first-error-wins), under every explored
// interleaving of ticket acquisition and retirement.

TEST(ModelTaskGroup, ExactlyOneCompletionAndFirstErrorWins) {
  constexpr int kThreads = 3;
  auto round = [](const std::vector<int>& forced,
                  std::uint64_t seed) -> Result {
    int completions = 0;
    exec::TaskGroup group(
        std::vector<exec::TaskGroup::Task>(
            kThreads, [](exec::TaskGroup&) {}),
        /*checkpoint=*/nullptr,
        /*on_complete=*/[&](exec::TaskGroup&) { ++completions; });

    // Scheduling points come from this instrumented ticket counter; the
    // group's own Mutex is real but only ever taken in uninstrumented
    // stretches (one model thread at a time, no scheduling point while
    // held), so it is never contended and never blocks the scheduler.
    ModelAtomic<int> ticket{0};
    std::array<int, kThreads> ticket_of{};  // thread index -> ticket
    std::array<int, kThreads> last_retire{};

    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < kThreads; ++i) {
      bodies.push_back([&, i] {
        // No scheduling point between the ticket draw and fail(): the
        // ticket order IS the order the error slots are claimed in.
        const int my = ticket.fetch_add(1);
        ticket_of[static_cast<std::size_t>(i)] = my;
        exec::ModelAccess::fail(group, "err-" + std::to_string(i));
        last_retire[static_cast<std::size_t>(i)] =
            exec::ModelAccess::retire(group) ? 1 : 0;
      });
    }
    VirtualScheduler sched(forced, seed);
    const Result result = sched.run(std::move(bodies));
    EXPECT_FALSE(result.deadlock);
    EXPECT_FALSE(result.truncated);

    EXPECT_EQ(completions, 1) << "on_complete must run exactly once";
    EXPECT_EQ(last_retire[0] + last_retire[1] + last_retire[2], 1)
        << "exactly one thread is the last retirer";
    EXPECT_TRUE(group.done());
    int first = -1;
    for (int i = 0; i < kThreads; ++i) {
      if (ticket_of[static_cast<std::size_t>(i)] == 0) first = i;
    }
    EXPECT_NE(first, -1);
    if (first != -1) {
      EXPECT_EQ(group.error(), "err-" + std::to_string(first))
          << "first-error-wins: the earliest fail() call owns the message";
    }
    EXPECT_TRUE(group.aborted());
    return result;
  };
  const Exploration out = explore(round, /*dfs_depth=*/4, /*random_runs=*/600);
  EXPECT_GT(static_cast<int>(out.schedules.size()), 50);
  EXPECT_EQ(out.deadlocks, 0);
}

// ---------------------------------------------------------------------------
// 5. The scheduler itself: deadlock detection and determinism.

TEST(ModelScheduler, DetectsAbbaDeadlock) {
  auto round = [](const std::vector<int>& forced, std::uint64_t seed) {
    ModelMutex a;
    ModelMutex b;
    VirtualScheduler sched(forced, seed);
    return sched.run({
        [&] {
          ModelMutexLock la(a);
          ModelMutexLock lb(b);
        },
        [&] {
          ModelMutexLock lb(b);
          ModelMutexLock la(a);
        },
    });
  };
  const Exploration out = explore(round, /*dfs_depth=*/8, /*random_runs=*/100);
  EXPECT_GT(out.deadlocks, 0) << "ABBA must deadlock in some schedule";
  EXPECT_LT(out.deadlocks, out.executions)
      << "and complete cleanly in others";
  EXPECT_EQ(out.violations, 0);
}

// ---------------------------------------------------------------------------
// 6. The PR 9 wait_idle-vs-classification race, distilled from
// streaming.cpp complete_update(): the retired update's stats
// classification must land in the SAME critical section that clears
// inflight_update_ and notifies, or a wait_idle() caller can observe the
// session idle while the update is not yet counted. The buggy variant is
// the pre-fix shape — idleness published and waiters woken first,
// classification in a later critical section — and the checker must find
// a schedule where the waiter reads stale stats.

template <bool kClassifyUnderPublishLock>
struct StreamIdleGate {
  ModelMutex mu;
  ModelCondVar cv;
  bool inflight = true;  ///< one update already submitted and in flight
  int classified = 0;    ///< sum of the stats_.updates_* buckets

  /// complete_update()'s tail: classify the retired update and publish
  /// idleness.
  void complete() {
    if constexpr (kClassifyUnderPublishLock) {
      mu.lock();
      classified += 1;
      inflight = false;
      cv.notify_all();
      mu.unlock();
    } else {
      // BUG (pre-PR 9): wait_idle()'s predicate turns true and its waiter
      // wakes here, before the classification lands below.
      mu.lock();
      inflight = false;
      cv.notify_all();
      mu.unlock();
      mu.lock();
      classified += 1;
      mu.unlock();
    }
  }

  /// wait_idle() followed by the caller's stats read.
  int wait_idle_then_read() {
    mu.lock();
    while (inflight) cv.wait(mu);
    const int seen = classified;
    mu.unlock();
    return seen;
  }
};

template <bool kClassifyUnderPublishLock>
std::pair<Exploration, int> explore_idle_gate() {
  int stale_reads = 0;
  auto round = [&](const std::vector<int>& forced, std::uint64_t seed) {
    StreamIdleGate<kClassifyUnderPublishLock> gate;
    int seen = -1;
    VirtualScheduler sched(forced, seed);
    const Result result = sched.run({
        [&] { gate.complete(); },
        [&] { seen = gate.wait_idle_then_read(); },
    });
    if (!result.deadlock && !result.truncated && seen != 1) ++stale_reads;
    return result;
  };
  const Exploration out = explore(round, /*dfs_depth=*/10, /*random_runs=*/300);
  return {out, stale_reads};
}

TEST(ModelStreamIdle, ClassifyAfterPublishLeaksStaleStatsToWaitIdle) {
  const auto [out, stale_reads] =
      explore_idle_gate</*kClassifyUnderPublishLock=*/false>();
  EXPECT_GT(stale_reads, 0)
      << "the pre-fix classify-after-publish path should let wait_idle "
         "return before the update is counted in some schedule ("
      << out.executions << " explored)";
  EXPECT_EQ(out.deadlocks, 0);
  EXPECT_EQ(out.violations, 0);
}

TEST(ModelStreamIdle, ClassifyUnderPublishLockIsAlwaysCounted) {
  const auto [out, stale_reads] =
      explore_idle_gate</*kClassifyUnderPublishLock=*/true>();
  EXPECT_EQ(stale_reads, 0)
      << "an idle session must have every retired update classified";
  EXPECT_EQ(out.deadlocks, 0);
  EXPECT_EQ(out.truncated, 0);
  EXPECT_EQ(out.violations, 0);
}

// ---------------------------------------------------------------------------
// 7. The PR 6 mailbox abort protocol, distilled from comm.cpp: take()
// must check the abort flag inside its wait loop — but only when the box
// is empty, so messages delivered before the abort still drain (the
// gather path relies on that) — and abort() must lock/unlock the mailbox
// mutex before notifying, closing the check-then-wait lost-wakeup window.
// The buggy variant waits with no abort awareness: a receiver waiting for
// a message nobody will ever send parks forever, which the scheduler
// reports as a deadlock — the rank-failure hang PR 6 fixed, rediscovered
// here by exhaustive interleaving.

constexpr int kMailboxAborted = -1;

template <bool kAbortAware>
struct ModelMailbox {
  ModelMutex mu;
  ModelCondVar cv;
  std::vector<int> messages;    // guarded by mu
  ModelAtomic<int> aborted{0};  // real code: std::atomic<bool>, acq/rel

  void deliver(int payload) {
    mu.lock();
    messages.push_back(payload);
    mu.unlock();
    cv.notify_all();  // faithful to deliver(): notify outside the lock
  }

  /// Cluster::take(), returning kMailboxAborted where the real code
  /// throws aborted_error() (model threads must not leak exceptions).
  int take() {
    ModelMutexLock lock(mu);
    while (messages.empty()) {
      if constexpr (kAbortAware) {
        // Checked only when the box has nothing for us: pre-abort
        // deliveries drain normally, only a wait that could never be
        // satisfied turns into an abort.
        if (aborted.load() != 0) return kMailboxAborted;
      }
      cv.wait(mu);
    }
    const int payload = messages.front();
    messages.erase(messages.begin());
    return payload;
  }

  void abort() {
    aborted.store(1);
    if constexpr (kAbortAware) {
      // Lock/unlock before notifying (Cluster::abort does this per box):
      // a receiver is then either before its flag check under the mutex
      // (and will see the flag) or already parked in wait (and gets the
      // notify). Without the handshake the notify can land in between —
      // the classic lost wakeup.
      mu.lock();
      mu.unlock();
    }
    cv.notify_all();
  }
};

template <bool kAbortAware>
std::pair<Exploration, int> explore_mailbox() {
  int drain_violations = 0;
  auto round = [&](const std::vector<int>& forced, std::uint64_t seed) {
    ModelMailbox<kAbortAware> box;
    int first = 0;
    int second = 0;
    VirtualScheduler sched(forced, seed);
    const Result result = sched.run({
        [&] {  // sender rank: one payload, then the rank dies -> abort
          box.deliver(42);
          box.abort();
        },
        [&] {  // receiver rank: drains the payload, then waits on a
               // message nobody will ever send
          first = box.take();
          second = box.take();
        },
    });
    // Drain-after-abort: in every completed run the pre-abort delivery is
    // received and only the unsatisfiable wait aborts.
    if (!result.deadlock && !result.truncated &&
        (first != 42 || second != kMailboxAborted)) {
      ++drain_violations;
    }
    return result;
  };
  const Exploration out = explore(round, /*dfs_depth=*/10, /*random_runs=*/300);
  return {out, drain_violations};
}

TEST(ModelMailbox, AbortBlindWaitHangsTheReceiver) {
  const auto [out, drain_violations] = explore_mailbox</*kAbortAware=*/false>();
  (void)drain_violations;  // deadlocked runs never reach the drain check
  EXPECT_GT(out.deadlocks, 0)
      << "the pre-fix abort-blind wait should park the receiver forever in "
         "some schedule ("
      << out.executions << " explored)";
  // The hang is unconditional — the second take() can never be satisfied —
  // which is exactly the rank-failure symptom.
  EXPECT_EQ(out.deadlocks, out.executions);
  EXPECT_EQ(out.violations, 0);
}

TEST(ModelMailbox, AbortAwareTakeDrainsThenUnwinds) {
  const auto [out, drain_violations] = explore_mailbox</*kAbortAware=*/true>();
  EXPECT_EQ(out.deadlocks, 0)
      << "the abort-aware protocol must never hang, in any schedule";
  EXPECT_EQ(out.truncated, 0);
  EXPECT_EQ(out.violations, 0);
  EXPECT_EQ(drain_violations, 0)
      << "messages delivered before the abort must still drain, and the "
         "unsatisfiable wait must unwind as aborted";
}

// ---------------------------------------------------------------------------
// 8. The executor's admit-vs-park handshake, distilled from worker_loop and
// ImageFormationService::submit: a worker samples the idle epoch, scans the
// scheduler backlog under the scheduler's mutex, then parks while the epoch
// still equals its sample; the admitter publishes a job under the scheduler
// mutex, then advances the epoch and notifies (TileExecutor::wake). The
// sample must precede the scan: the buggy variant samples after it, so an
// admission landing between the scan and the sample moves the epoch to the
// value the worker then parks on, and the worker sleeps forever beside a
// queued job — a deadlock to the scheduler. The scan is the service's
// source, which must also claim past a dead job (expired or cancelled while
// queued): one that reports "nothing ready" after claiming it parks beside
// the live job queued behind it, whose wakeup was already spent.

constexpr int kNoJob = -1;
constexpr int kDeadJob = 0;  ///< resolves at claim without a task group

template <bool kSampleBeforeScan, bool kClaimPastDeadJobs>
struct ModelIdlePark {
  ModelMutex sched_mu;       // FairScheduler::mutex_
  std::vector<int> backlog;  // guarded by sched_mu
  ModelMutex idle_mu;        // TileExecutor::idle_mutex_
  ModelCondVar idle_cv;
  int epoch = 0;             // guarded by idle_mu

  void admit(int job) {
    sched_mu.lock();
    backlog.push_back(job);
    sched_mu.unlock();
    idle_mu.lock();
    ++epoch;
    idle_mu.unlock();
    idle_cv.notify_all();  // faithful to wake(): notify outside the lock
  }

  int sample_epoch() {
    ModelMutexLock lock(idle_mu);
    return epoch;
  }

  /// FairScheduler::claim without waiting.
  int try_claim() {
    ModelMutexLock lock(sched_mu);
    if (backlog.empty()) return kNoJob;
    const int job = backlog.front();
    backlog.erase(backlog.begin());
    return job;
  }

  /// The source (next_group): the first live job claimed, or kNoJob.
  int source() {
    for (;;) {
      const int job = try_claim();
      if (job != kDeadJob) return job;
      // BUG: the live jobs behind the dead one stay queued, unannounced.
      if constexpr (!kClaimPastDeadJobs) return kNoJob;
    }
  }

  /// One idle worker: scan, else park until the epoch moves, and rescan.
  int claim_or_park() {
    for (;;) {
      int seen = 0;
      if constexpr (kSampleBeforeScan) seen = sample_epoch();
      if (const int job = source(); job != kNoJob) return job;
      // BUG: a job admitted between the scan and this sample is missed,
      // and so is the wakeup that announced it.
      if constexpr (!kSampleBeforeScan) seen = sample_epoch();
      idle_mu.lock();
      while (epoch == seen) idle_cv.wait(idle_mu);
      idle_mu.unlock();
    }
  }
};

/// The admitter submits `jobs` one by one; the worker must claim job 7,
/// the last one.
template <bool kSampleBeforeScan, bool kClaimPastDeadJobs>
std::pair<Exploration, int> explore_idle_park(const std::vector<int>& jobs) {
  int unclaimed = 0;
  auto round = [&](const std::vector<int>& forced, std::uint64_t seed) {
    ModelIdlePark<kSampleBeforeScan, kClaimPastDeadJobs> pool;
    int claimed = kNoJob;
    VirtualScheduler sched(forced, seed);
    const Result result = sched.run({
        [&] { claimed = pool.claim_or_park(); },
        [&] {
          for (const int job : jobs) pool.admit(job);
        },
    });
    if (!result.deadlock && !result.truncated && claimed != 7) ++unclaimed;
    return result;
  };
  const Exploration out = explore(round, /*dfs_depth=*/10, /*random_runs=*/300);
  return {out, unclaimed};
}

TEST(ModelIdlePark, SampleAfterScanParksBesideAQueuedJob) {
  const auto [out, unclaimed] =
      explore_idle_park</*kSampleBeforeScan=*/false,
                        /*kClaimPastDeadJobs=*/true>({7});
  EXPECT_GT(out.deadlocks, 0)
      << "sampling the epoch after the scan should let the worker park "
         "forever with the job queued in some schedule ("
      << out.executions << " explored)";
  EXPECT_LT(out.deadlocks, out.executions) << "and claim it in others";
  EXPECT_EQ(unclaimed, 0);
  EXPECT_EQ(out.violations, 0);
}

TEST(ModelIdlePark, StopAtDeadJobParksBesideALiveJob) {
  const auto [out, unclaimed] =
      explore_idle_park</*kSampleBeforeScan=*/true,
                        /*kClaimPastDeadJobs=*/false>({kDeadJob, 7});
  EXPECT_GT(out.deadlocks, 0)
      << "a source that reports nothing ready after claiming the dead job "
         "should park the worker beside the live one in some schedule ("
      << out.executions << " explored)";
  EXPECT_LT(out.deadlocks, out.executions) << "and claim it in others";
  EXPECT_EQ(unclaimed, 0);
  EXPECT_EQ(out.violations, 0);
}

TEST(ModelIdlePark, SampleBeforeScanAlwaysClaims) {
  for (const std::vector<int>& jobs :
       {std::vector<int>{7}, std::vector<int>{kDeadJob, 7}}) {
    SCOPED_TRACE(jobs.size() == 1 ? "one live job" : "a dead job, then live");
    const auto [out, unclaimed] =
        explore_idle_park</*kSampleBeforeScan=*/true,
                          /*kClaimPastDeadJobs=*/true>(jobs);
    EXPECT_EQ(out.deadlocks, 0)
        << "an admission after the sample moves the epoch, and the source "
           "claims past the dead job, so the worker never parks beside a "
           "queued job";
    EXPECT_EQ(out.truncated, 0);
    EXPECT_EQ(out.violations, 0);
    EXPECT_EQ(unclaimed, 0) << "every schedule claims the live job";
  }
}

TEST(ModelScheduler, FixedSeedIsDeterministic) {
  const Exploration a = explore(deque_round, /*dfs_depth=*/3,
                                /*random_runs=*/300, /*base_seed=*/42);
  const Exploration b = explore(deque_round, /*dfs_depth=*/3,
                                /*random_runs=*/300, /*base_seed=*/42);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.schedules, b.schedules)
      << "same (forced, seed) inputs must replay identical schedules";
  const Exploration c = explore(deque_round, /*dfs_depth=*/3,
                                /*random_runs=*/300, /*base_seed=*/43);
  EXPECT_NE(a.schedules, c.schedules)
      << "a different seed should explore a different schedule sample";
}

}  // namespace
}  // namespace sarbp::model
