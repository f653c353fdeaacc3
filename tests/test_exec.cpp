// Work-stealing tile executor tests: Chase-Lev deque semantics under
// contention, group lifecycle (completion continuation, abort, errors),
// steal behaviour, and the acceptance parity check — executor-formed
// images bit-identical to one serial kernel call over the grid for every
// kernel with stealing on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "asr/block_plan.h"
#include "backprojection/backprojector.h"
#include "backprojection/kernel.h"
#include "common/check.h"
#include "common/grid2d.h"
#include "exec/executor.h"
#include "exec/formation_tasks.h"
#include "exec/steal_deque.h"
#include "exec/task_group.h"
#include "exec/tile_backend.h"
#include "test_helpers.h"

namespace sarbp::exec {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- deque ---

TEST(StealDeque, OwnerPopsLifoThievesStealFifo) {
  StealDeque deque(8);
  std::vector<TaskUnit> units(4);
  for (auto& unit : units) EXPECT_TRUE(deque.push(&unit));
  EXPECT_EQ(deque.size_approx(), 4u);

  EXPECT_EQ(deque.steal(), &units[0]);  // oldest first
  EXPECT_EQ(deque.pop(), &units[3]);    // newest first
  EXPECT_EQ(deque.steal(), &units[1]);
  EXPECT_EQ(deque.pop(), &units[2]);
  EXPECT_EQ(deque.pop(), nullptr);
  EXPECT_EQ(deque.steal(), nullptr);
}

TEST(StealDeque, PushFailsWhenFull) {
  StealDeque deque(4);  // rounds to capacity 4
  std::vector<TaskUnit> units(5);
  for (std::size_t i = 0; i < deque.capacity(); ++i) {
    EXPECT_TRUE(deque.push(&units[i]));
  }
  EXPECT_FALSE(deque.push(&units[4]));
  EXPECT_NE(deque.steal(), nullptr);  // stealing frees a slot
  EXPECT_TRUE(deque.push(&units[4]));
}

// Owner pushes and pops while thieves hammer steal(): every unit must be
// claimed exactly once, by exactly one side. This is the race the TSan run
// exists to check.
TEST(StealDeque, StressEveryUnitClaimedExactlyOnce) {
  constexpr int kUnits = 20000;
  constexpr int kThieves = 3;
  StealDeque deque(1024);
  std::vector<TaskUnit> units(kUnits);
  for (int i = 0; i < kUnits; ++i) units[i].index = static_cast<std::uint32_t>(i);

  std::vector<std::atomic<int>> claimed(kUnits);
  std::atomic<bool> done{false};
  std::atomic<int> total{0};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || deque.size_approx() > 0) {
        if (TaskUnit* unit = deque.steal()) {
          claimed[unit->index].fetch_add(1, std::memory_order_relaxed);
          total.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  int next = 0;
  while (next < kUnits) {
    // Push a burst, then pop roughly half of it back — exercises the
    // owner/thief race on the last item.
    int burst = 0;
    while (next < kUnits && burst < 64 && deque.push(&units[next])) {
      ++next;
      ++burst;
    }
    for (int k = 0; k < burst / 2; ++k) {
      if (TaskUnit* unit = deque.pop()) {
        claimed[unit->index].fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  while (TaskUnit* unit = deque.pop()) {
    claimed[unit->index].fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(1, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();

  EXPECT_EQ(total.load(), kUnits);
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(claimed[i].load(), 1) << "unit " << i;
  }
}

// ------------------------------------------------------------- executor ---

TEST(TileExecutor, RunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 100;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&runs, i](TaskGroup&) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::atomic<bool> completed{false};
  auto group = std::make_shared<TaskGroup>(
      std::move(tasks), nullptr,
      [&](TaskGroup&) { completed.store(true, std::memory_order_release); });

  obs::Registry registry;
  ExecOptions options;
  options.workers = 4;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_TRUE(completed.load());
  EXPECT_FALSE(group->aborted());
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  if (obs::kEnabled) {
    EXPECT_EQ(registry.counter("exec.tasks.run").value(),
              static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(registry.counter("exec.groups.completed").value(), 1u);
  }
}

TEST(TileExecutor, CheckpointFalseAbortsAndSkipsRemainingTasks) {
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  std::atomic<int> polls{0};
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(
        [&](TaskGroup&) { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // Trip after a handful of polls — mid-group, possibly during steals.
  auto checkpoint = [&]() -> bool {
    return polls.fetch_add(1, std::memory_order_relaxed) < 5;
  };
  auto group = std::make_shared<TaskGroup>(std::move(tasks), checkpoint,
                                           nullptr);

  obs::Registry registry;
  ExecOptions options;
  options.workers = 4;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_TRUE(group->aborted());
  EXPECT_TRUE(group->error().empty());  // checkpoint aborts carry no error
  EXPECT_LT(ran.load(), kTasks);
  if (obs::kEnabled) {
    EXPECT_EQ(registry.counter("exec.tasks.run").value() +
                  registry.counter("exec.tasks.skipped").value(),
              static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(registry.counter("exec.groups.aborted").value(), 1u);
  }
}

TEST(TileExecutor, TaskExceptionAbortsGroupAndRecordsFirstError) {
  std::vector<TaskGroup::Task> tasks;
  tasks.push_back([](TaskGroup&) {});
  tasks.push_back(
      [](TaskGroup&) { throw std::runtime_error("tile exploded"); });
  for (int i = 0; i < 16; ++i) tasks.push_back([](TaskGroup&) {});
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  ExecOptions options;
  options.workers = 2;
  options.metrics = nullptr;  // default registry; counters not asserted here
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_TRUE(group->aborted());
  EXPECT_EQ(group->error(), "tile exploded");
}

TEST(TileExecutor, IdleWorkerStealsFromRunningJob) {
  // One group, two workers: the claimer injects both tasks into its own
  // deque, so the pair can only overlap in time if the second worker
  // steals. Each task waits until both are in flight (with a timeout so a
  // regression fails instead of hanging).
  std::atomic<int> in_flight{0};
  auto body = [&](TaskGroup&) {
    in_flight.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (in_flight.load(std::memory_order_acquire) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  std::vector<TaskGroup::Task> tasks{body, body};
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  obs::Registry registry;
  ExecOptions options;
  options.workers = 2;
  options.steal = true;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_EQ(in_flight.load(), 2);
  EXPECT_GE(group->tasks_stolen(), 1u);
  if (obs::kEnabled) {
    EXPECT_GE(registry.counter("exec.tasks.stolen").value(), 1u);
  }
}

TEST(TileExecutor, StealOffRunsGroupOnClaimingWorkerOnly) {
  constexpr int kTasks = 32;
  std::atomic<int> ran{0};
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(
        [&](TaskGroup&) { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  ExecOptions options;
  options.workers = 4;
  options.steal = false;
  obs::Registry registry;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(group->tasks_stolen(), 0u);
  EXPECT_EQ(registry.counter("exec.tasks.stolen").value(), 0u);
}

// The external-run contract: with steal on, the run() caller sweeps its
// own group beside the pool, so one worker plus the caller put both tasks
// in flight at once. Each task waits (with a timeout so a regression
// fails instead of hanging) until both are running.
TEST(TileExecutor, RunCallerSweepsBesideOneWorker) {
  std::atomic<int> in_flight{0};
  std::atomic<int> overlapped{0};
  auto body = [&](TaskGroup&) {
    in_flight.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (in_flight.load(std::memory_order_acquire) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (std::chrono::steady_clock::now() < deadline) {
      overlapped.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<TaskGroup::Task> tasks{body, body};
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  obs::Registry registry;
  ExecOptions options;
  options.workers = 1;
  options.steal = true;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_EQ(overlapped.load(), 2);
  if (obs::kEnabled) {
    EXPECT_EQ(registry.counter("exec.tasks.run").value(), 2u);
  }
}

// With steal off the caller only waits: no task runs on its thread, even
// when the first task is held long enough for a helping caller to reach
// the rest.
TEST(TileExecutor, StealOffRunNeverRunsTasksOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  std::atomic<bool> first{true};
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&](TaskGroup&) {
      if (first.exchange(false, std::memory_order_acq_rel)) {
        std::this_thread::sleep_for(50ms);
      }
      if (std::this_thread::get_id() == caller) {
        on_caller.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  ExecOptions options;
  options.workers = 2;
  options.steal = false;
  obs::Registry registry;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_EQ(on_caller.load(), 0);
  if (obs::kEnabled) {
    EXPECT_EQ(registry.counter("exec.tasks.run").value(), 8u);
  }
}

// Several threads calling run() at once: one holds the caller slot, the
// rest fall back to submit + wait, and every group still completes.
TEST(TileExecutor, ConcurrentRunCallersAllComplete) {
  ExecOptions options;
  options.workers = 2;
  obs::Registry registry;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        std::vector<TaskGroup::Task> tasks(
            3, [&](TaskGroup&) { ran.fetch_add(1, std::memory_order_relaxed); });
        executor.run(
            std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr));
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(ran.load(), 4 * 50 * 3);
  if (obs::kEnabled) {
    EXPECT_EQ(registry.counter("exec.groups.completed").value(), 200u);
  }
}

// Idle workers park on the idle epoch instead of polling: once the pool
// has settled, it makes no steal attempts at all.
TEST(TileExecutor, IdlePoolMakesNoStealAttempts) {
  // Without a source, and with one that has nothing to hand out until the
  // test closes it: an idle pool parks either way.
  for (const bool with_source : {false, true}) {
    SCOPED_TRACE(with_source ? "empty source" : "no source");
    std::atomic<bool> closed{false};
    ExecOptions options;
    options.workers = 4;
    obs::Registry registry;
    options.metrics = &registry;
    if (with_source) {
      options.source = [&closed](bool* end) -> GroupPtr {
        *end = closed.load();
        return nullptr;
      };
    }
    TileExecutor executor(std::move(options));
    std::vector<TaskGroup::Task> tasks(8, [](TaskGroup&) {});
    executor.run(
        std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr));

    // Let every worker finish its post-run scan and park.
    const std::uint64_t before =
        testing::settled_value(registry.counter("exec.steal.fail"));
    std::this_thread::sleep_for(100ms);
    EXPECT_EQ(registry.counter("exec.steal.fail").value(), before);
    closed.store(true);
    executor.drain();
  }
}

TEST(TileExecutor, PullSourceDrainsToEndOfStream) {
  constexpr int kGroups = 8;
  std::atomic<int> handed{0};
  std::atomic<int> completed{0};

  ExecOptions options;
  options.workers = 2;
  obs::Registry registry;
  options.metrics = &registry;
  options.source = [&](bool* end) -> GroupPtr {
    const int n = handed.fetch_add(1, std::memory_order_acq_rel);
    if (n >= kGroups) {
      handed.store(kGroups, std::memory_order_release);
      *end = true;
      return nullptr;
    }
    std::vector<TaskGroup::Task> tasks;
    for (int i = 0; i < 4; ++i) tasks.push_back([](TaskGroup&) {});
    return std::make_shared<TaskGroup>(
        std::move(tasks), nullptr,
        [&](TaskGroup&) { completed.fetch_add(1, std::memory_order_relaxed); });
  };
  {
    TileExecutor executor(std::move(options));
    executor.drain();
  }
  EXPECT_EQ(completed.load(), kGroups);
}

TEST(TileExecutor, SubmitAfterDrainIsRejected) {
  ExecOptions options;
  options.workers = 1;
  TileExecutor executor(std::move(options));
  executor.drain();
  std::vector<TaskGroup::Task> tasks{[](TaskGroup&) {}};
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);
  EXPECT_FALSE(executor.submit(group));
}

// --------------------------------------------------------------- parity ---

bool images_bit_identical(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (Index y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row(y).data(), b.row(y).data(),
                    static_cast<std::size_t>(a.width()) * sizeof(CFloat)) != 0) {
      return false;
    }
  }
  return true;
}

// Acceptance criterion: a backprojection group run on its own executor
// adds the pulses into the image with the bytes of one serial kernel call
// over the grid, for every kernel, with stealing on and off, with each
// pulse in its wavefront order or with the order switching every 8
// pulses. Each task sweeps one block over every pulse and blocks are
// disjoint, so no schedule changes a byte.
TEST(ExecutorParity, BitIdenticalToAddPulsesAllKernelsStealOnOff) {
  using bp::KernelKind;
  for (const Index image : {96, 200}) {
    testing::ScenarioConfig cfg;
    cfg.image = image;
    cfg.pulses = 48;
    const auto scenario = testing::make_scenario(cfg);
    const sim::PhaseHistory alternating = testing::alternate_loop_orders(
        scenario.history, scenario.grid.centre());
    for (const sim::PhaseHistory* history : {&scenario.history, &alternating}) {
      for (KernelKind kind :
           {KernelKind::kBaseline, KernelKind::kBaselineAllFloat,
            KernelKind::kAsrScalar, KernelKind::kAsrSimd}) {
        if (kind == KernelKind::kAsrSimd && !bp::asr_simd_available()) {
          continue;
        }
        bp::BackprojectOptions options;
        options.kernel = kind;
        const Grid2D<CFloat> reference =
            testing::serial_kernel_image(*history, scenario.grid, options);
        for (const bool steal : {false, true}) {
          Grid2D<CFloat> formed(scenario.grid.width(), scenario.grid.height());
          ExecOptions exec_options;
          exec_options.workers = 4;
          exec_options.steal = steal;
          obs::Registry registry;
          exec_options.metrics = &registry;
          TileExecutor executor(std::move(exec_options));
          executor.run(make_backprojection_group(*history, scenario.grid,
                                                 options, formed));
          EXPECT_TRUE(images_bit_identical(reference, formed))
              << image << "^2, kernel " << bp::kernel_name(kind)
              << (history == &alternating ? ", alternating orders" : "")
              << ", steal " << (steal ? "on" : "off");
        }
      }
    }
  }
}

// The executor must produce the same bits regardless of scheduling: repeat
// the same group several times across worker counts and compare.
TEST(ExecutorParity, DeterministicAcrossWorkerCounts) {
  testing::ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 32;
  const auto scenario = testing::make_scenario(cfg);
  bp::BackprojectOptions options;
  options.kernel = bp::KernelKind::kAsrScalar;
  options.asr_block_w = 32;
  options.asr_block_h = 32;

  Grid2D<CFloat> first(0, 0);
  for (const int workers : {1, 2, 4}) {
    Grid2D<CFloat> image(scenario.grid.width(), scenario.grid.height());
    ExecOptions exec_options;
    exec_options.workers = workers;
    obs::Registry registry;
    exec_options.metrics = &registry;
    TileExecutor executor(std::move(exec_options));
    executor.run(make_backprojection_group(scenario.history, scenario.grid,
                                           options, image));
    if (first.width() == 0) {
      first = std::move(image);
    } else {
      EXPECT_TRUE(images_bit_identical(first, image)) << workers << " workers";
    }
  }
}

// A pulse whose radar sits on a block centre makes that block's table
// build throw: form_image throws and no caller sees the partly formed
// image. The driver's next image, on the same pool and thread-local block
// tiles, is a fresh driver's.
TEST(FormationGroup, RefusedTableBuildThrowsAndDriverRecovers) {
  testing::ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 16;
  const auto scenario = testing::make_scenario(cfg);
  sim::PhaseHistory refused = scenario.history;
  const asr::BlockSpec block =
      asr::plan_blocks(0, 0, cfg.image, cfg.image, 64, 64).back();
  refused.meta(5).position = scenario.grid.position_f(
      static_cast<double>(block.x0) +
          0.5 * static_cast<double>(block.width - 1),
      static_cast<double>(block.y0) +
          0.5 * static_cast<double>(block.height - 1));

  bp::BackprojectOptions options;
  options.threads = 4;
  const Backprojector driver(scenario.grid, options);
  EXPECT_THROW((void)driver.form_image(refused), PreconditionError);
  EXPECT_TRUE(images_bit_identical(
      driver.form_image(scenario.history),
      Backprojector(scenario.grid, options).form_image(scenario.history)));
}

// ---------------------------------------------- make_formation_group ---

/// What a formation group's body saw, with the thread that saw it:
/// checkpoint polls (item -1), prepares, and sweeps with their kernel.
struct BodyEvent {
  enum Kind { kPoll, kPrepare, kSweep } kind;
  Index item;
  std::thread::id thread;
  bp::SimdIsa isa = bp::SimdIsa::kScalar;
};

/// A logging body for make_formation_group. Polls from the `fail_from`-th
/// on (1-based; 0 = never) return false, as a cancel does. A sweep takes
/// at least a microsecond, so its backend's clock always moves.
class BodyLog {
 public:
  explicit BodyLog(std::size_t fail_from = 0) : fail_from_(fail_from) {}

  FormationSpec spec(Index items, int workers, Index task_cap,
                     std::shared_ptr<BackendSet> backends) {
    FormationSpec spec;
    spec.items = items;
    spec.prepare = [this](Index i) { log({BodyEvent::kPrepare, i, {}}); };
    spec.sweep = [this](Index i, const bp::AsrKernel& kernel) {
      log({BodyEvent::kSweep, i, {}, kernel.isa});
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start < 1us) {
      }
      return 1.0;
    };
    spec.workers = workers;
    spec.task_cap = task_cap;
    spec.backends = std::move(backends);
    spec.checkpoint = [this] {
      log({BodyEvent::kPoll, -1, {}});
      std::lock_guard<std::mutex> lock(mutex_);
      ++polls_;
      return fail_from_ == 0 || polls_ < fail_from_;
    };
    spec.on_complete = [this](TaskGroup&) { completions_.fetch_add(1); };
    return spec;
  }

  [[nodiscard]] std::vector<BodyEvent> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }
  [[nodiscard]] int completions() const { return completions_.load(); }

  /// Each thread's events in the order it saw them.
  [[nodiscard]] std::map<std::thread::id, std::vector<BodyEvent>> by_thread()
      const {
    std::map<std::thread::id, std::vector<BodyEvent>> out;
    for (const BodyEvent& e : events()) out[e.thread].push_back(e);
    return out;
  }

  /// Each task's items in sweep order, for a run without an abort: a task
  /// starts where a thread polls twice in a row (the executor's poll, then
  /// the task's poll before its first item).
  [[nodiscard]] std::vector<std::vector<Index>> tasks() const {
    std::vector<std::vector<Index>> out;
    for (const auto& [thread, seq] : by_thread()) {
      for (std::size_t k = 0; k < seq.size(); ++k) {
        if (seq[k].kind == BodyEvent::kPoll && k + 1 < seq.size() &&
            seq[k + 1].kind == BodyEvent::kPoll) {
          out.emplace_back();
        } else if (seq[k].kind == BodyEvent::kSweep) {
          out.back().push_back(seq[k].item);
        }
      }
    }
    return out;
  }

 private:
  void log(BodyEvent event) {
    event.thread = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(event);
  }

  const std::size_t fail_from_;
  mutable std::mutex mutex_;
  std::vector<BodyEvent> events_;
  std::size_t polls_ = 0;
  std::atomic<int> completions_{0};
};

std::map<Index, int> count_events(const std::vector<BodyEvent>& events,
                                  BodyEvent::Kind kind) {
  std::map<Index, int> out;
  for (const BodyEvent& e : events) {
    if (e.kind == kind) ++out[e.item];
  }
  return out;
}

// make_formation_group's contract, over worker counts, task caps and
// backend routing: every item runs once; prepare(i) runs on the sweeping
// thread just before sweep(i), after one poll per item (plus the
// executor's one per task); routed items sweep with their backend's
// kernel; a zero-item group completes once; and a checkpoint that fails
// at item j leaves the rest of j's task unswept and skips its record.
TEST(FormationGroup, MakeFormationGroupContract) {
  constexpr Index kItems = 13;
  std::vector<BackendSpec> three(3);
  three[1].kind = BackendSpec::Kind::kHostSimd;
  three[2].kind = BackendSpec::Kind::kOffloadSim;
  const auto run = [](const GroupPtr& group, int workers, bool steal) {
    ExecOptions options;
    options.workers = workers;
    options.steal = steal;
    obs::Registry registry;
    options.metrics = &registry;
    TileExecutor executor(std::move(options));
    executor.run(group);
  };

  for (const int workers : {1, 2, 4}) {
    for (const Index cap : {Index{0}, Index{1}, Index{3}, kItems + 5}) {
      for (const bool routed : {false, true}) {
        SCOPED_TRACE(std::to_string(workers) + " workers, cap " +
                     std::to_string(cap) + (routed ? ", routed" : ""));
        // A fresh set splits by its priors, so every run below (and
        // `owner`) routes the same item ranges to the same backends.
        obs::Registry registry;
        const auto backends = [&]() -> std::shared_ptr<BackendSet> {
          return routed ? std::make_shared<BackendSet>(three, 0.5, &registry)
                        : nullptr;
        };
        const std::vector<Index> bounds =
            routed ? BackendSet(three, 0.5, &registry).partition(kItems)
                   : std::vector<Index>{0, kItems};
        const auto owner = [&](Index item) {
          std::size_t k = 0;
          while (bounds[k + 1] <= item) ++k;
          return k;
        };

        {  // Every item once; poll, prepare and sweep on one thread.
          BodyLog log;
          const auto set = backends();
          const GroupPtr group =
              make_formation_group(log.spec(kItems, workers, cap, set));
          run(group, workers, /*steal=*/true);
          EXPECT_FALSE(group->aborted());
          EXPECT_EQ(log.completions(), 1);
          const auto events = log.events();
          const auto swept = count_events(events, BodyEvent::kSweep);
          const auto prepared = count_events(events, BodyEvent::kPrepare);
          for (Index i = 0; i < kItems; ++i) {
            EXPECT_EQ(swept.count(i) ? swept.at(i) : 0, 1) << "item " << i;
            EXPECT_EQ(prepared.count(i) ? prepared.at(i) : 0, 1);
          }
          EXPECT_EQ(count_events(events, BodyEvent::kPoll)[-1],
                    static_cast<int>(group->size()) + kItems);
          for (const auto& [thread, seq] : log.by_thread()) {
            for (std::size_t k = 0; k < seq.size(); ++k) {
              if (seq[k].kind != BodyEvent::kPrepare) continue;
              ASSERT_TRUE(k >= 1 && seq[k - 1].kind == BodyEvent::kPoll);
              ASSERT_TRUE(k + 1 < seq.size() &&
                          seq[k + 1].kind == BodyEvent::kSweep &&
                          seq[k + 1].item == seq[k].item);
              const bp::SimdIsa want =
                  routed ? set->backend(static_cast<int>(owner(seq[k].item)))
                               .kernel()
                               .isa
                         : bp::SimdIsa::kScalar;
              EXPECT_EQ(seq[k + 1].isa, want) << "item " << seq[k].item;
            }
          }
          const auto tasks = log.tasks();
          EXPECT_EQ(tasks.size(), group->size());
          for (const auto& task : tasks) {
            for (std::size_t k = 1; k < task.size(); ++k) {
              EXPECT_EQ(task[k], task[k - 1] + 1);  // contiguous, in order
            }
          }
        }

        {  // Zero items: one no-op task, one completion.
          BodyLog log;
          const GroupPtr group =
              make_formation_group(log.spec(0, workers, cap, backends()));
          run(group, workers, /*steal=*/true);
          EXPECT_EQ(group->size(), 1u);
          EXPECT_EQ(log.completions(), 1);
          EXPECT_EQ(log.events().size(), 1u);  // the executor's poll
        }

        // Abort: with stealing off the claiming worker runs every task, so
        // a clean run fixes the order and the poll before item j.
        constexpr Index j = kItems / 2;
        BodyLog clean;
        run(make_formation_group(clean.spec(kItems, workers, cap, backends())),
            workers, /*steal=*/false);
        const auto clean_events = clean.events();
        std::size_t fail_from = 0;
        for (std::size_t k = 0, polls = 0; k < clean_events.size(); ++k) {
          if (clean_events[k].kind == BodyEvent::kPoll) ++polls;
          if (clean_events[k].kind == BodyEvent::kPrepare &&
              clean_events[k].item == j) {
            fail_from = polls;
            break;
          }
        }
        ASSERT_GT(fail_from, 0u);
        std::vector<Index> task_of_j;
        const auto clean_tasks = clean.tasks();
        for (const auto& task : clean_tasks) {
          if (task.front() <= j && j <= task.back()) task_of_j = task;
        }

        BodyLog failing(fail_from);
        obs::Registry failing_registry;
        const auto set = routed ? std::make_shared<BackendSet>(
                                      three, 0.5, &failing_registry)
                                : nullptr;
        const GroupPtr group =
            make_formation_group(failing.spec(kItems, workers, cap, set));
        run(group, workers, /*steal=*/false);
        EXPECT_TRUE(group->aborted());
        EXPECT_EQ(failing.completions(), 1);
        const auto swept = count_events(failing.events(), BodyEvent::kSweep);
        for (const Index i : task_of_j) {
          EXPECT_EQ(swept.count(i), i < j ? 1u : 0u) << "item " << i;
        }
        if (!routed) continue;
        // A backend records once per task that swept all its items.
        std::vector<std::uint64_t> records(3, 0);
        for (const auto& task : clean_tasks) {
          bool whole = true;
          for (const Index i : task) whole = whole && swept.count(i) == 1;
          if (whole) ++records[owner(task.front())];
        }
        for (int k = 0; k < 3; ++k) {
          const TileBackend& backend = set->backend(k);
          EXPECT_EQ(backend.observed_rate() > 0.0, records[k] > 0)
              << backend.name();
          if (obs::kEnabled) {
            EXPECT_EQ(failing_registry
                          .counter("backend." + backend.name() + ".sweeps")
                          .value(),
                      records[k])
                << backend.name();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sarbp::exec
