// Multi-tenant image-formation job service: a weighted-fair scheduler with
// admission control and per-tenant quotas in front of either a local
// work-stealing tile executor (shards <= 1) or a sharded cluster of rank
// executors behind a front-end router (shards >= 2), plus an LRU
// formation-plan cache, cooperative cancellation/deadline checks between
// ASR blocks, and a graceful drain (DESIGN.md §8, §9, §11).
//
// Scheduling structure: admitted jobs enter a FairScheduler — strict
// priority across classes, start-time fair queueing across tenants within
// a class, FIFO within a tenant (fair_queue.h). In local mode, idle
// executor workers claim jobs straight from the scheduler and decompose
// each into block-range tasks on their own deque; other workers claim
// further jobs first and steal tasks only when no whole job is ready. In
// sharded mode a route thread claims jobs and hands them to the
// ShardRouter, which partitions each across the cluster ranks
// (shard_router.h) and gathers the partial tiles asynchronously.
//
// Overload semantics: admission is bounded by `max_pending` jobs across
// all classes. A submit against a full pending set is rejected kQueueFull
// at once, and one that would push a tenant past its quota
// kQuotaExceeded: neither waits.
//
// Shutdown: drain() stops admission, lets the workers (or the router)
// finish every queued job, and joins them. The destructor drains, so
// every JobHandle is resolved before the service dies and wait() can
// never block on a dead service — including when a shard rank died: the
// cluster abort fails the affected jobs instead of wedging them.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "obs/metrics.h"
#include "service/fair_queue.h"
#include "service/job.h"
#include "service/plan_cache.h"
#include "service/shard_router.h"

namespace sarbp::service {

/// Why a submit was turned away.
enum class RejectReason {
  kNone,
  kQueueFull,      ///< pending set already at max_pending
  kShuttingDown,   ///< drain()/destructor already started
  kInvalidRequest, ///< no pulses, a non-finite sample, a region not
                   ///< inside the grid, or a bad block size
  kQuotaExceeded,  ///< the tenant's queued-job quota is exhausted
};
inline constexpr int kNumRejectReasons = 5;

/// Exhaustive by construction: no default and no fall-through return, so
/// adding a RejectReason without naming it is a compile error under
/// -Werror (-Wswitch/-Wreturn-type), not a silent "?" at runtime.
[[nodiscard]] constexpr const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShuttingDown: return "shutting_down";
    case RejectReason::kInvalidRequest: return "invalid_request";
    case RejectReason::kQuotaExceeded: return "quota_exceeded";
  }
  // Unreachable for in-range enumerators; keeps UB away from casts.
  return "?";
}

struct SubmitOutcome {
  std::shared_ptr<JobHandle> handle;  ///< null when rejected
  RejectReason reject = RejectReason::kNone;

  [[nodiscard]] bool admitted() const { return handle != nullptr; }
};

struct ServiceConfig {
  /// Width of the local work-stealing tile executor (shards <= 1 mode).
  int workers = 2;
  /// Disables stealing when false: each job runs entirely on the worker
  /// that claimed it (the pre-executor serial behaviour; bench baseline).
  bool steal = true;
  /// Admission bound: maximum jobs queued (not yet claimed) across all
  /// priority classes.
  std::size_t max_pending = 64;
  /// Formation-plan LRU capacity in entries, and the window of its miss
  /// record: a geometry's plan is built and kept only when it recurs
  /// within this many unkept misses; the others sweep their tables on the
  /// fly (plan_cache.h). 0 keeps and builds no plan (the bench's baseline
  /// mode).
  std::size_t plan_cache_capacity = 8;
  /// Test/ops hook: when true the workers hold at a gate until resume(),
  /// so a batch of requests can be staged and released atomically.
  bool start_paused = false;
  /// Test hook: invoked by every RunVerdict::poll — the inter-block
  /// checkpoint — before its cancellation/deadline checks (on every shard,
  /// in sharded mode).
  std::function<void()> inter_block_hook;
  /// Metrics sink; null selects the process-global obs::registry(). Must
  /// outlive the service and every handle it issued.
  obs::Registry* metrics = nullptr;

  // --- tile compute backends (local mode) --------------------------------
  /// Backends the plan-replay tasks target, with blocks routed by the §5.3
  /// dynamic split from observed per-backend rates (exec/tile_backend.h).
  /// Empty keeps the direct path, the widest vector rows
  /// (AsrKernel{kAuto}): byte-identical to execute_plan, as is a list of
  /// kHostScalar and kHostSimd entries without kGatherNoFma.
  /// Ignored in sharded mode (shards >= 2), where the ranks replay plans
  /// themselves.
  std::vector<exec::BackendSpec> backends;
  /// EMA weight for each backend's observed-rate tracker.
  double backend_rate_smoothing = 0.5;

  // --- weighted-fair scheduling ------------------------------------------
  /// Policy for tenants without an explicit entry (and the empty tenant).
  TenantPolicy default_tenant_policy;
  /// Per-tenant weight/quota overrides.
  std::map<std::string, TenantPolicy> tenant_policies;

  // --- sharding (>= 2 activates the cluster-backed router) ---------------
  /// Cluster width. <= 1 keeps the single-node executor path.
  int shards = 1;
  /// Tile-executor width inside each shard rank.
  int shard_workers = 1;
  /// Jobs at most this many region pixels route whole to one shard;
  /// larger jobs are cut into block-aligned bands when the region has
  /// >= 2 ASR block bands (shard_router.h). Either way the image is the
  /// single-node path's bytes.
  Index shard_small_pixels = 64 * 64;
  /// Fault-injection seam: runs on a shard rank before each dispatch;
  /// throwing kills the rank and aborts the cluster (tests).
  std::function<void(int shard, std::uint64_t seq)> shard_fault_hook;
};

/// The job service. Instrumentation (per configured registry):
///   counters   service.jobs.submitted, service.jobs.{done,failed,
///              cancelled,expired}, service.rejected.<reject_reason_name>,
///              tenant.<t>.{submitted,rejected.quota,jobs.<state>},
///              shard.jobs.{single,grid_split},
///              shard.parts.dispatched
///   gauges     service.pending, service.workers.busy, shard.jobs.inflight
///   histograms service.job.queue_s, service.job.setup_s (local mode),
///              service.job.compute_s, service.job.latency_s.<priority>,
///              tenant.<t>.latency_s, shard.job.gather_s
///   queues     queue.service.gather.* (sharded mode)
///   executors  exec.* (local mode) / shard.<k>.exec.* (per shard rank)
///   plan cache service.plan_cache.* (see plan_cache.h)
class ImageFormationService {
 public:
  explicit ImageFormationService(ServiceConfig config);
  ~ImageFormationService();

  ImageFormationService(const ImageFormationService&) = delete;
  ImageFormationService& operator=(const ImageFormationService&) = delete;

  /// Admission-controlled submit. On success the returned handle tracks
  /// the job through its lifecycle; on rejection `reject` says why and no
  /// handle exists.
  SubmitOutcome submit(ImageFormationRequest request);

  /// Opens the start_paused gate. Idempotent; no-op when not paused.
  void resume();

  /// Stops admission, runs every queued job to a terminal state, joins the
  /// workers. Idempotent; implied by the destructor.
  void drain();

  [[nodiscard]] obs::Registry& metrics() const { return *metrics_; }
  [[nodiscard]] const PlanCache& plan_cache() const { return plan_cache_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] bool sharded() const { return router_ != nullptr; }

 private:
  using JobPtr = std::shared_ptr<JobHandle>;

  /// Counts the rejection in service.rejected.<name> and wraps it.
  SubmitOutcome reject(RejectReason reason);

  /// The local executor's pull-model source: claims jobs from the fair
  /// scheduler, without blocking, until one yields a task group. Null once
  /// nothing is claimable (an empty backlog or the start_paused gate).
  exec::GroupPtr next_group(bool* end);
  /// Dequeues a claimed job, then builds its plan-replay group (or calls
  /// its custom factory) under one guard: a throw before the hand-off
  /// resolves the job kFailed. Null when the job resolved without compute.
  exec::GroupPtr build_job_group(const JobPtr& job);
  /// Sharded mode: claims jobs and hands them to the router until the
  /// scheduler reports end-of-stream.
  void route_loop();

  ServiceConfig config_;
  obs::Registry* metrics_;
  PlanCache plan_cache_;

  std::unique_ptr<FairScheduler> sched_;

  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> completion_seq_{0};

  obs::Counter* submitted_ = nullptr;
  obs::Gauge* busy_gauge_ = nullptr;
  obs::Histogram* setup_s_ = nullptr;
  obs::Histogram* compute_s_ = nullptr;

  /// Null unless config_.backends is non-empty (local mode); shared with
  /// every plan-replay group so observed rates outlive individual jobs.
  std::shared_ptr<exec::BackendSet> backend_set_;

  /// Constructed last: their workers claim from sched_ and touch every
  /// member above. Destroyed first (drain) for the same reason. Exactly
  /// one of exec_ (local) / router_ + route_thread_ (sharded) is live.
  std::unique_ptr<exec::TileExecutor> exec_;
  std::unique_ptr<ShardRouter> router_;
  std::thread route_thread_;
};

}  // namespace sarbp::service
