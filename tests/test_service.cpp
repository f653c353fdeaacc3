// Job-service tests: planned-executor parity with the streaming scalar
// kernel, end-to-end image accuracy through the service, strict-priority
// scheduling, admission control, cancellation (queued and running),
// deadline expiry and a setup failure (each local and sharded),
// plan-cache behaviour via the obs counters (including
// that an aborted miss inserts no plan), drain with jobs in flight, and the
// request-trace JSON round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backprojection/kernel.h"
#include "exec/task_group.h"
#include "common/check.h"
#include "common/snr.h"
#include "geometry/wavefront.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "service/trace.h"
#include "test_helpers.h"

namespace sarbp::service {
namespace {

using namespace std::chrono_literals;
using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

/// Tiny scenario shared by the lifecycle tests (the image content is
/// irrelevant there; only the accuracy tests use a larger one).
struct TinyFixture {
  SmallScenario scenario;
  std::shared_ptr<const sim::PhaseHistory> pulses;
};

TinyFixture make_tiny(std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 12;
  cfg.seed = seed;
  SmallScenario s = make_scenario(cfg);
  auto pulses = std::make_shared<const sim::PhaseHistory>(s.history);
  return {std::move(s), std::move(pulses)};
}

ImageFormationRequest tiny_request(
    const SmallScenario& s, std::shared_ptr<const sim::PhaseHistory> pulses,
    Priority pri = Priority::kNormal) {
  ImageFormationRequest req;
  req.grid = s.grid;
  req.pulses = std::move(pulses);
  req.asr_block_w = req.asr_block_h = 16;
  req.priority = pri;
  return req;
}

// --- plan build / execute ------------------------------------------------

TEST(FormationPlan, ExecuteMatchesStreamingScalarKernelExactly) {
  const auto [s, pulses] = make_tiny();
  const Region region{0, 0, s.grid.width(), s.grid.height()};

  const auto plan = build_formation_plan(s.grid, region, 16, 16, *pulses);
  bp::SoaTile planned(region.width, region.height);
  ASSERT_TRUE(execute_plan(*plan, *pulses, planned, nullptr));

  // Per-pulse scalar calls with the plan's own loop orders accumulate each
  // pixel's contributions in the same order the planned executor does, so
  // the two paths must agree bit for bit.
  bp::SoaTile streamed(region.width, region.height);
  for (Index p = 0; p < pulses->num_pulses(); ++p) {
    bp::backproject_asr_scalar(*pulses, s.grid, region, p, p + 1, 16, 16,
                               plan->pulse_order[static_cast<std::size_t>(p)],
                               streamed);
  }
  for (Index y = 0; y < region.height; ++y) {
    const float* pr = planned.row_re(y);
    const float* pi = planned.row_im(y);
    const float* sr = streamed.row_re(y);
    const float* si = streamed.row_im(y);
    for (Index x = 0; x < region.width; ++x) {
      ASSERT_EQ(pr[x], sr[x]) << "re mismatch at (" << x << "," << y << ")";
      ASSERT_EQ(pi[x], si[x]) << "im mismatch at (" << x << "," << y << ")";
    }
  }
}

TEST(FormationPlan, CheckpointFalseAbortsExecution) {
  const auto [s, pulses] = make_tiny();
  const Region region{0, 0, s.grid.width(), s.grid.height()};
  const auto plan = build_formation_plan(s.grid, region, 16, 16, *pulses);

  bp::SoaTile tile(region.width, region.height);
  int calls = 0;
  EXPECT_FALSE(execute_plan(*plan, *pulses, tile,
                            [&] { return ++calls <= 1; }));
  EXPECT_EQ(calls, 2);  // first block ran, second checkpoint aborted
}

TEST(FormationPlan, SignatureSeparatesDistinctGeometries) {
  const auto ha = make_tiny(7).pulses;
  const auto hb = make_tiny(8).pulses;
  EXPECT_NE(pulse_geometry_signature(*ha), pulse_geometry_signature(*hb));
  EXPECT_EQ(pulse_geometry_signature(*ha), pulse_geometry_signature(*ha));
}

// --- service lifecycle ---------------------------------------------------

TEST(Service, FormsImageMatchingReference) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 24;
  SmallScenario s = make_scenario(cfg);
  const auto pulses = std::make_shared<const sim::PhaseHistory>(s.history);

  Grid2D<CDouble> reference(cfg.image, cfg.image);
  const Region all{0, 0, cfg.image, cfg.image};
  bp::backproject_ref(*pulses, s.grid, all, 0, pulses->num_pulses(),
                      reference);

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  ImageFormationRequest req;
  req.grid = s.grid;
  req.pulses = pulses;
  req.asr_block_w = req.asr_block_h = 32;
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_EQ(result.image.width(), cfg.image);
  EXPECT_EQ(result.image.height(), cfg.image);
  EXPECT_GT(snr_db(result.image, reference), 45.0);
}

TEST(Service, StrictPriorityWithFifoWithinClass) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;  // stage the whole batch before any job runs
  sc.metrics = &reg;
  ImageFormationService service(sc);

  auto low1 = service.submit(tiny_request(s, pulses, Priority::kLow));
  auto low2 = service.submit(tiny_request(s, pulses, Priority::kLow));
  auto normal = service.submit(tiny_request(s, pulses, Priority::kNormal));
  auto high = service.submit(tiny_request(s, pulses, Priority::kHigh));
  ASSERT_TRUE(low1.admitted() && low2.admitted() && normal.admitted() &&
              high.admitted());

  service.resume();
  service.drain();

  ASSERT_EQ(high.handle->result().state, JobState::kDone);
  ASSERT_EQ(normal.handle->result().state, JobState::kDone);
  ASSERT_EQ(low1.handle->result().state, JobState::kDone);
  ASSERT_EQ(low2.handle->result().state, JobState::kDone);

  // Completion order: high before normal before both lows; FIFO among lows.
  EXPECT_LT(high.handle->result().completion_index,
            normal.handle->result().completion_index);
  EXPECT_LT(normal.handle->result().completion_index,
            low1.handle->result().completion_index);
  EXPECT_LT(low1.handle->result().completion_index,
            low2.handle->result().completion_index);
}

TEST(Service, AdmissionRejectsWhenPendingSetFull) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.max_pending = 2;
  sc.start_paused = true;  // nothing dequeues, so the pending set stays full
  sc.metrics = &reg;
  ImageFormationService service(sc);

  auto a = service.submit(tiny_request(s, pulses));
  auto b = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(a.admitted() && b.admitted());

  auto c = service.submit(tiny_request(s, pulses));
  EXPECT_FALSE(c.admitted());
  EXPECT_EQ(c.reject, RejectReason::kQueueFull);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.queue_full").value(), 1u);
  }

  service.resume();
  service.drain();
  EXPECT_EQ(a.handle->result().state, JobState::kDone);
  EXPECT_EQ(b.handle->result().state, JobState::kDone);
}

TEST(Service, RejectReasonNamesCoverEveryEnumerator) {
  // Guard rail for the metric namespace: every reject reason must map to a
  // distinct, non-placeholder name (the names become counter suffixes).
  std::set<std::string> names;
  for (int r = 0; r < kNumRejectReasons; ++r) {
    const std::string name = reject_reason_name(static_cast<RejectReason>(r));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumRejectReasons));
  EXPECT_EQ(names.count("quota_exceeded"), 1u);
}

TEST(Service, TenantQuotaRejectsExcessQueuedJobs) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;  // nothing dequeues, so queued counts are exact
  sc.tenant_policies["alpha"].quota = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  ImageFormationRequest first = tiny_request(s, pulses);
  first.tenant = "alpha";
  auto a = service.submit(std::move(first));
  ASSERT_TRUE(a.admitted());

  ImageFormationRequest second = tiny_request(s, pulses);
  second.tenant = "alpha";
  auto b = service.submit(std::move(second));
  EXPECT_FALSE(b.admitted());
  EXPECT_EQ(b.reject, RejectReason::kQuotaExceeded);

  // The quota is per tenant: another tenant (and the default unlimited
  // policy) is unaffected.
  ImageFormationRequest other = tiny_request(s, pulses);
  other.tenant = "beta";
  auto c = service.submit(std::move(other));
  ASSERT_TRUE(c.admitted());

  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.quota_exceeded").value(), 1u);
    EXPECT_EQ(reg.counter("tenant.alpha.rejected.quota").value(), 1u);
  }

  service.resume();
  service.drain();
  EXPECT_EQ(a.handle->result().state, JobState::kDone);
  EXPECT_EQ(c.handle->result().state, JobState::kDone);
}

TEST(Service, WeightedFairSchedulingInterleavesByWeight) {
  const auto [s, pulses] = make_tiny();

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;  // sequential claims make the interleave deterministic
  sc.start_paused = true;
  sc.tenant_policies["alpha"].weight = 2.0;
  sc.tenant_policies["beta"].weight = 1.0;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  // Equal-cost jobs: start-time fair queuing gives alpha finish tags at
  // 0.5c, 1.0c, 1.5c, 2.0c and beta at 1.0c, 2.0c; ties break toward the
  // lexicographically smaller tenant. Expected claim order: A A B A A B.
  std::vector<std::shared_ptr<JobHandle>> alpha, beta;
  for (int i = 0; i < 4; ++i) {
    ImageFormationRequest req = tiny_request(s, pulses);
    req.tenant = "alpha";
    auto outcome = service.submit(std::move(req));
    ASSERT_TRUE(outcome.admitted());
    alpha.push_back(std::move(outcome.handle));
  }
  for (int i = 0; i < 2; ++i) {
    ImageFormationRequest req = tiny_request(s, pulses);
    req.tenant = "beta";
    auto outcome = service.submit(std::move(req));
    ASSERT_TRUE(outcome.admitted());
    beta.push_back(std::move(outcome.handle));
  }

  service.resume();
  service.drain();

  std::vector<std::uint64_t> order;
  for (const auto& h : {alpha[0], alpha[1], beta[0], alpha[2], alpha[3],
                        beta[1]}) {
    ASSERT_EQ(h->result().state, JobState::kDone);
    order.push_back(h->result().completion_index);
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i])
        << "weighted-fair order broke between positions " << i - 1 << " and "
        << i;
  }
}

TEST(Service, InvalidRequestsRejectedWithReason) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  ImageFormationRequest no_pulses = tiny_request(s, pulses);
  no_pulses.pulses = nullptr;
  EXPECT_EQ(service.submit(std::move(no_pulses)).reject,
            RejectReason::kInvalidRequest);

  ImageFormationRequest bad_region = tiny_request(s, pulses);
  bad_region.region = Region{-4, 0, 8, 8};
  EXPECT_EQ(service.submit(std::move(bad_region)).reject,
            RejectReason::kInvalidRequest);

  ImageFormationRequest oversize = tiny_request(s, pulses);
  oversize.region = Region{0, 0, s.grid.width() + 1, 4};
  EXPECT_EQ(service.submit(std::move(oversize)).reject,
            RejectReason::kInvalidRequest);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.invalid_request").value(), 3u);
  }
}

// --- lifecycle, local and sharded ----------------------------------------

enum class Mode { kLocal, kSharded };

/// Names the mode in the test names ctest lists (".../local").
void PrintTo(Mode mode, std::ostream* os) {
  *os << (mode == Mode::kLocal ? "local" : "sharded");
}

/// Runs a lifecycle test on the local executor and on 2 shards whose
/// threshold splits the 32-px tiny job into two 16-px bands, so both modes
/// must end a job in the same state with the same error.
class ServiceLifecycle : public ::testing::TestWithParam<Mode> {
 protected:
  [[nodiscard]] ServiceConfig in_mode(ServiceConfig sc) const {
    if (GetParam() == Mode::kSharded) {
      sc.shards = 2;
      sc.shard_small_pixels = 16;
    }
    return sc;
  }
};

INSTANTIATE_TEST_SUITE_P(Modes, ServiceLifecycle,
                         ::testing::Values(Mode::kLocal, Mode::kSharded));

TEST_P(ServiceLifecycle, CancelQueuedJobResolvesImmediately) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;
  sc.metrics = &reg;
  ImageFormationService service(in_mode(sc));

  auto outcome = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(outcome.admitted());
  EXPECT_EQ(outcome.handle->state(), JobState::kQueued);
  EXPECT_TRUE(outcome.handle->cancel());
  EXPECT_EQ(outcome.handle->state(), JobState::kCancelled);
  EXPECT_FALSE(outcome.handle->cancel());  // already terminal
  // A live job queued behind the cancelled one must still run, with no
  // further submit or drain to wake the pool.
  auto live = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(live.admitted());
  std::this_thread::sleep_for(20ms);  // the pool parks; resume's wake is last

  service.resume();
  ASSERT_TRUE(live.handle->wait_for(30s))
      << "stranded behind the cancelled job";
  EXPECT_EQ(live.handle->result().state, JobState::kDone);
  service.drain();
  EXPECT_EQ(outcome.handle->result().state, JobState::kCancelled);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.jobs.cancelled").value(), 1u);
  }
}

TEST_P(ServiceLifecycle, CancelRunningJobStopsAtBlockCheckpoint) {
  const auto [s, pulses] = make_tiny();

  std::mutex m;
  std::condition_variable cv;
  bool at_checkpoint = false;
  bool release = false;

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  sc.inter_block_hook = [&] {
    std::unique_lock lock(m);
    if (!at_checkpoint) {
      at_checkpoint = true;
      cv.notify_all();
    }
    cv.wait(lock, [&] { return release; });
  };
  ImageFormationService service(in_mode(sc));

  auto outcome = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(outcome.admitted());
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return at_checkpoint; });
  }
  EXPECT_EQ(outcome.handle->state(), JobState::kRunning);
  EXPECT_TRUE(outcome.handle->cancel());
  {
    std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();

  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.error, "cancelled while running");
  service.drain();
}

TEST_P(ServiceLifecycle, DeadlineExpiryWhileQueued) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;
  sc.metrics = &reg;
  ImageFormationService service(in_mode(sc));

  auto req = tiny_request(s, pulses);
  req.deadline = std::chrono::steady_clock::now() - 1ms;  // already missed
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  // A live job queued behind the expired one must still run, with no
  // further submit or drain to wake the pool.
  auto live = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(live.admitted());
  std::this_thread::sleep_for(20ms);  // the pool parks; resume's wake is last

  service.resume();
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.error, "deadline passed while queued");
  ASSERT_TRUE(live.handle->wait_for(30s))
      << "stranded behind the expired job";
  EXPECT_EQ(live.handle->result().state, JobState::kDone);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.jobs.expired").value(), 1u);
  }
}

TEST_P(ServiceLifecycle, DeadlineExpiryWhileRunning) {
  const auto [s, pulses] = make_tiny();

  const auto deadline = std::chrono::steady_clock::now() + 200ms;
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  // Every checkpoint sleeps past the deadline, so the first one taken
  // after kRunning begins must observe the expiry.
  sc.inter_block_hook = [deadline] {
    std::this_thread::sleep_until(deadline + 10ms);
  };
  ImageFormationService service(in_mode(sc));

  auto req = tiny_request(s, pulses);
  req.deadline = deadline;
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());

  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kExpired);
  EXPECT_EQ(result.error, "deadline passed while running");
}

TEST_P(ServiceLifecycle, OversizedRegionFailsAndServiceKeepsServing) {
  // A 2^31 x 2^31 grid at 0.5 m, one ASR block and one 64-sample pulse
  // passes submit, but its region tile exceeds std::vector::max_size(), so
  // setup throws std::length_error before touching memory. The job fails
  // with that error, and the same service then forms a normal image.
  const Index edge = Index{1} << 31;
  ImageFormationRequest huge;
  huge.grid = geometry::ImageGrid(edge, edge, 0.5);
  huge.pulses = std::make_shared<const sim::PhaseHistory>(1, 64, 0.5, 1.0);
  huge.asr_block_w = huge.asr_block_h = edge;
  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(in_mode(sc));

  auto failed = service.submit(std::move(huge));
  ASSERT_TRUE(failed.admitted());
  ASSERT_TRUE(failed.handle->wait_for(30s));
  EXPECT_EQ(failed.handle->result().state, JobState::kFailed);
  EXPECT_FALSE(failed.handle->result().error.empty());

  const auto [s, pulses] = make_tiny();
  auto formed = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(formed.admitted());
  const JobResult& result = formed.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_EQ(result.image.width(), s.grid.width());
}

TEST(Service, PlanCacheHitOnRepeatedGeometry) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.plan_cache_capacity = 4;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  auto first = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(first.admitted());
  ASSERT_EQ(first.handle->wait().state, JobState::kDone);
  EXPECT_FALSE(first.handle->result().plan_cache_hit);

  auto second = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(second.admitted());
  ASSERT_EQ(second.handle->wait().state, JobState::kDone);
  EXPECT_TRUE(second.handle->result().plan_cache_hit);

  EXPECT_EQ(service.plan_cache().size(), 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 1u);
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 1u);
    EXPECT_GT(reg.gauge("service.plan_cache.bytes").value(), 0);
  }

  // Same collection, different region: a distinct plan key, so a miss.
  auto sub = tiny_request(s, pulses);
  sub.region = Region{0, 0, 16, 16};
  auto third = service.submit(std::move(sub));
  ASSERT_TRUE(third.admitted());
  ASSERT_EQ(third.handle->wait().state, JobState::kDone);
  EXPECT_FALSE(third.handle->result().plan_cache_hit);
  EXPECT_EQ(third.handle->result().image.width(), 16);
}

TEST(Service, PlanCacheCapacityZeroDisablesRetention) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.plan_cache_capacity = 0;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  for (int i = 0; i < 2; ++i) {
    auto outcome = service.submit(tiny_request(s, pulses));
    ASSERT_TRUE(outcome.admitted());
    ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);
    EXPECT_FALSE(outcome.handle->result().plan_cache_hit);
  }
  EXPECT_EQ(service.plan_cache().size(), 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 0u);
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 2u);
  }
}

/// The image a prebuilt plan replays to: build_formation_plan +
/// execute_plan, the reference every cache-miss job must match bytewise.
Grid2D<CFloat> prebuilt_replay(const SmallScenario& s,
                               const sim::PhaseHistory& pulses,
                               const Region& region, Index block) {
  const auto plan = build_formation_plan(s.grid, region, block, block, pulses);
  bp::SoaTile tile(region.width, region.height);
  EXPECT_TRUE(execute_plan(*plan, pulses, tile, nullptr));
  Grid2D<CFloat> image(region.width, region.height);
  tile.accumulate_into(image, Region{0, 0, region.width, region.height});
  return image;
}

/// How the cache-miss job under test aborts.
enum class MissAbort { kCancel, kDeadline, kThrow };

/// A miss builds its plan inside the replay tasks and inserts it only when
/// every task ran. Abort one after a block's tables are built: the cache
/// must keep its size, and the next identical request must miss again and
/// still deliver the prebuilt-plan image.
void expect_aborted_miss_inserts_nothing(MissAbort how) {
  const auto [s, pulses] = make_tiny();
  const Region all{0, 0, s.grid.width(), s.grid.height()};

  std::atomic<bool> armed{false};
  std::atomic<int> armed_calls{0};
  std::mutex m;
  std::condition_variable cv;
  bool at_checkpoint = false;
  bool release = false;
  std::chrono::steady_clock::time_point deadline{};  // set before arming

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.tile_tasks = 1;  // one task: the hook's calls come in a fixed order
  sc.plan_cache_capacity = 4;
  sc.metrics = &reg;
  sc.inter_block_hook = [&] {
    if (!armed.load()) return;
    // Call 0 is the executor's poll before the task starts; calls 1 and 2
    // are the task's polls before blocks 0 and 1, so call 2 lands after
    // block 0's tables were built and swept.
    if (armed_calls.fetch_add(1) != 2) return;
    switch (how) {
      case MissAbort::kCancel: {
        std::unique_lock lock(m);
        at_checkpoint = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        break;
      }
      case MissAbort::kDeadline:
        std::this_thread::sleep_until(deadline + 10ms);
        break;
      case MissAbort::kThrow:
        throw std::runtime_error("injected task fault");
    }
  };
  ImageFormationService service(sc);

  // Another key already cached: the aborted miss must neither add an entry
  // nor evict one.
  auto corner = tiny_request(s, pulses);
  corner.region = Region{0, 0, 16, 16};
  auto warm = service.submit(std::move(corner));
  ASSERT_TRUE(warm.admitted());
  ASSERT_EQ(warm.handle->wait().state, JobState::kDone);
  ASSERT_EQ(service.plan_cache().size(), 1u);
  const std::size_t bytes_before = service.plan_cache().bytes();

  auto req = tiny_request(s, pulses);
  deadline = std::chrono::steady_clock::now() + 500ms;
  if (how == MissAbort::kDeadline) req.deadline = deadline;
  armed = true;
  auto victim = service.submit(std::move(req));
  ASSERT_TRUE(victim.admitted());
  if (how == MissAbort::kCancel) {
    {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return at_checkpoint; });
    }
    EXPECT_TRUE(victim.handle->cancel());
    {
      std::lock_guard lock(m);
      release = true;
    }
    cv.notify_all();
  }
  const JobResult& aborted = victim.handle->wait();
  switch (how) {
    case MissAbort::kCancel:
      EXPECT_EQ(aborted.state, JobState::kCancelled);
      EXPECT_EQ(aborted.error, "cancelled while running");
      break;
    case MissAbort::kDeadline:
      EXPECT_EQ(aborted.state, JobState::kExpired);
      EXPECT_EQ(aborted.error, "deadline passed while running");
      break;
    case MissAbort::kThrow:
      EXPECT_EQ(aborted.state, JobState::kFailed);
      EXPECT_EQ(aborted.error, "injected task fault");
      break;
  }
  EXPECT_GE(armed_calls.load(), 3);
  EXPECT_FALSE(aborted.plan_cache_hit);
  EXPECT_EQ(service.plan_cache().size(), 1u);
  EXPECT_EQ(service.plan_cache().bytes(), bytes_before);

  armed = false;
  auto again = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(again.admitted());
  const JobResult& result = again.handle->wait();
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_FALSE(result.plan_cache_hit);
  const Grid2D<CFloat> expected = prebuilt_replay(s, *pulses, all, 16);
  EXPECT_TRUE(result.image == expected);
  EXPECT_EQ(service.plan_cache().size(), 2u);

  // That miss inserted a complete plan: replaying it gives the same bytes.
  auto hit = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(hit.admitted());
  const JobResult& replayed = hit.handle->wait();
  ASSERT_EQ(replayed.state, JobState::kDone) << replayed.error;
  EXPECT_TRUE(replayed.plan_cache_hit);
  EXPECT_TRUE(replayed.image == expected);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.plan_cache.misses").value(), 3u);
    EXPECT_EQ(reg.counter("service.plan_cache.hits").value(), 1u);
  }
}

TEST(Service, CancelledMissInsertsNoPlan) {
  expect_aborted_miss_inserts_nothing(MissAbort::kCancel);
}

TEST(Service, ExpiredMissInsertsNoPlan) {
  expect_aborted_miss_inserts_nothing(MissAbort::kDeadline);
}

TEST(Service, ThrowingMissTaskInsertsNoPlan) {
  expect_aborted_miss_inserts_nothing(MissAbort::kThrow);
}

TEST(Service, DrainWithJobsInFlightRunsBacklogToCompletion) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < 8; ++i) {
    auto outcome = service.submit(tiny_request(
        s, pulses, static_cast<Priority>(i % kNumPriorities)));
    ASSERT_TRUE(outcome.admitted());
    handles.push_back(std::move(outcome.handle));
  }
  service.drain();  // must run every queued job, then stop — no hang

  for (const auto& handle : handles) {
    EXPECT_EQ(handle->result().state, JobState::kDone)
        << handle->result().error;
  }
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.jobs.done").value(), 8u);
  }
}

TEST(Service, IdleWorkersParkWithoutPolling) {
  if (!obs::kEnabled) GTEST_SKIP() << "reads the exec.steal.fail counter";
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 3;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  auto outcome = service.submit(tiny_request(s, pulses));
  ASSERT_TRUE(outcome.admitted());
  ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);

  // Idle workers park on the executor's epoch, as a pool without a source
  // does: once settled, they make no steal attempts.
  const std::uint64_t before =
      testing::settled_value(reg.counter("exec.steal.fail"));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(reg.counter("exec.steal.fail").value(), before);
}

TEST(Service, SubmitAfterDrainRejectsShuttingDown) {
  const auto [s, pulses] = make_tiny();
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.metrics = &reg;
  ImageFormationService service(sc);
  service.drain();

  auto outcome = service.submit(tiny_request(s, pulses));
  EXPECT_FALSE(outcome.admitted());
  EXPECT_EQ(outcome.reject, RejectReason::kShuttingDown);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("service.rejected.shutting_down").value(), 1u);
  }
}

// --- traces --------------------------------------------------------------

TEST(Trace, JsonRoundTrip) {
  Trace trace = make_repeated_scene_trace(2, 2, 48, 16, 16);
  ASSERT_EQ(trace.requests.size(), 4u);
  // Tenants that need escaping: a quote, a backslash, control characters.
  trace.requests[1].tenant = "a\"b";
  trace.requests[2].tenant = "a\\b";
  trace.requests[3].tenant = "tab\there\nline\x01";
  // Timings that a 6-significant-digit writer rounds.
  trace.requests[0].delay_ms = 0.1234567;
  trace.requests[0].deadline_ms = 1234.5678;
  const Trace parsed = parse_trace_json(to_json(trace));
  ASSERT_EQ(parsed.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(parsed.requests[i].image, trace.requests[i].image);
    EXPECT_EQ(parsed.requests[i].pulses, trace.requests[i].pulses);
    EXPECT_EQ(parsed.requests[i].block, trace.requests[i].block);
    EXPECT_EQ(parsed.requests[i].priority, trace.requests[i].priority);
    EXPECT_EQ(parsed.requests[i].scene, trace.requests[i].scene);
    EXPECT_EQ(parsed.requests[i].tenant, trace.requests[i].tenant);
    EXPECT_EQ(parsed.requests[i].delay_ms, trace.requests[i].delay_ms);
    EXPECT_EQ(parsed.requests[i].deadline_ms, trace.requests[i].deadline_ms);
  }
}

TEST(Trace, NearPastDeadlineRoundTripsAndExpiresOnReplay) {
  // A negative deadline_ms is a deadline already past at submission. It
  // must survive the JSON round trip (not get clamped to "no deadline")
  // and replay as an immediate expiry, not a completed job.
  Trace trace;
  TraceEntry entry;
  entry.image = 32;
  entry.pulses = 8;
  entry.block = 16;
  entry.deadline_ms = -5.0;
  trace.requests.push_back(entry);

  const Trace parsed = parse_trace_json(to_json(trace));
  ASSERT_EQ(parsed.requests.size(), 1u);
  EXPECT_EQ(parsed.requests[0].deadline_ms, -5.0);

  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(sc);
  const ReplayStats stats = replay_trace(parsed, service);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.done, 0u);
}

TEST(Trace, ParseRejectsBadInput) {
  EXPECT_THROW(parse_trace_json("{}"), PreconditionError);
  EXPECT_THROW(parse_trace_json("{\"schema\": \"sarbp.trace.v9\"}"),
               PreconditionError);
  EXPECT_THROW(
      parse_trace_json("{\"schema\": \"sarbp.trace.v1\", \"bogus\": 1}"),
      PreconditionError);
  EXPECT_THROW(parse_trace_json("{\"schema\": \"sarbp.trace.v1\", "
                                "\"requests\": [{\"frobnicate\": 3}]}"),
               PreconditionError);
  EXPECT_THROW(parse_trace_json("not json at all"), PreconditionError);

  // Each case is a one-request trace whose request is `fields`.
  const auto trace_with = [](const std::string& fields) {
    return "{\"schema\": \"sarbp.trace.v1\", \"requests\": [{" + fields +
           "}]}";
  };
  ASSERT_EQ(parse_trace_json(trace_with("\"ix\": 96")).requests.size(), 1u);
  EXPECT_THROW(parse_trace_json(trace_with("\"ix\": 96") + " garbage"),
               PreconditionError);
  EXPECT_THROW(parse_trace_json(trace_with("\"ix\": 96, \"ix\": 64")),
               PreconditionError);
  // Integer fields take integers within their type's range only.
  for (const char* bad :
       {"\"ix\": 96.7", "\"ix\": +96", "\"pulses\": 1e2", "\"scene\": -1",
        "\"scene\": 18446744073709551616", "\"repeat\": 1e12",
        "\"stream\": 1.5", "\"stream\": 1, \"chunk\": 2.5",
        "\"stream\": 1, \"window\": 3e0"}) {
    EXPECT_THROW(parse_trace_json(trace_with(bad)), PreconditionError) << bad;
  }
}

TEST(Trace, ReplayRepeatedScenesHitsPlanCache) {
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;  // sequential: every repeat lands after its scene's miss
  sc.plan_cache_capacity = 4;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  const Trace trace = make_repeated_scene_trace(2, 2, 48, 12, 16);
  const ReplayStats stats = replay_trace(trace, service);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.done, 4u);
  EXPECT_EQ(stats.plan_misses, 2u);  // one per distinct scene
  EXPECT_EQ(stats.plan_hits, 2u);   // one per repeat
  EXPECT_GT(stats.throughput_jobs_per_s, 0.0);
  EXPECT_GE(stats.latency_p99_s, stats.latency_p50_s);
}

// --- custom jobs (the seam streaming updates ride through) ---------------

TEST(CustomJob, RunsFullLifecycleWithoutPulses) {
  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(sc);

  std::atomic<bool> ran{false};
  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [&ran](const CustomJobContext& ctx) -> exec::GroupPtr {
    std::vector<exec::TaskGroup::Task> tasks;
    tasks.emplace_back([&ran](exec::TaskGroup&) { ran = true; });
    auto finish = ctx.finish;
    return std::make_shared<exec::TaskGroup>(
        std::move(tasks), ctx.checkpoint,
        [finish](exec::TaskGroup& group) {
          finish(group.aborted() ? JobState::kFailed : JobState::kDone, "");
        },
        "custom_test");
  };

  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(result.image.width(), 0);  // custom jobs publish elsewhere
}

TEST(CustomJob, FinishReportsStateAfterLosingCancelRace) {
  // A custom job cancelled while QUEUED never runs its factory; the
  // abandonment callback is the only notification, and it must carry the
  // resolved state.
  ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;
  ImageFormationService service(sc);

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<JobState> abandoned;
  std::atomic<bool> factory_ran{false};
  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [&factory_ran](const CustomJobContext& ctx) -> exec::GroupPtr {
    factory_ran = true;
    ctx.finish(JobState::kDone, "");
    return nullptr;
  };
  req.custom_abandoned = [&](JobState state) {
    std::lock_guard<std::mutex> lock(mutex);
    abandoned = state;
    cv.notify_all();
  };

  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  EXPECT_TRUE(outcome.handle->cancel());
  service.resume();
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return abandoned.has_value(); }));
    EXPECT_EQ(*abandoned, JobState::kCancelled);
  }
  EXPECT_FALSE(factory_ran.load());
  EXPECT_EQ(outcome.handle->result().state, JobState::kCancelled);
}

TEST(CustomJob, RejectedInShardedMode) {
  ServiceConfig sc;
  sc.shards = 2;
  sc.shard_workers = 1;
  ImageFormationService service(sc);

  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [](const CustomJobContext&) -> exec::GroupPtr {
    return nullptr;
  };
  const auto outcome = service.submit(std::move(req));
  EXPECT_FALSE(outcome.admitted());
  EXPECT_EQ(outcome.reject, RejectReason::kInvalidRequest);
}

TEST(CustomJob, ThrowingFactoryFailsTheJob) {
  ServiceConfig sc;
  sc.workers = 1;
  ImageFormationService service(sc);

  ImageFormationRequest req;
  req.grid = geometry::ImageGrid(16, 16, 0.5);
  req.custom = [](const CustomJobContext&) -> exec::GroupPtr {
    throw std::runtime_error("factory exploded");
  };
  auto outcome = service.submit(std::move(req));
  ASSERT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.error, "factory exploded");
}

}  // namespace
}  // namespace sarbp::service
