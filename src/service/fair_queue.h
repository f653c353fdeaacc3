// Per-tenant weighted-fair scheduler with quotas, layered on the service's
// strict-priority classes (DESIGN.md §8).
//
// Structure: one scheduling class per Priority; inside a class, one FIFO
// deque per tenant plus start-time fair queueing (SFQ) tags. At admission
// a job is stamped with a virtual finish time
//
//     start  = max(class virtual time, tenant's last finish tag)
//     finish = start + cost / weight
//
// where cost is the job's predicted work (region pixels × pulses,
// normalized) and weight the tenant's configured share. claim() serves
// classes in strict priority order and, within a class, the tenant whose
// head job has the minimal finish tag (ties broken by tenant name, so the
// schedule is deterministic). One tenant, or equal-weight tenants with
// equal-cost jobs, degenerates to plain FIFO — the pre-sharding behaviour.
//
// Quotas bound a tenant's share of the pending set: a submit that would
// push the tenant above its quota is rejected kQuotaExceeded, and one
// against a full pending set (max_pending) kQueueFull, both at once.
//
// This single structure replaces the previous ready-queues + token-queue
// pair: admission, claim, and close/drain share one mutex, so the
// submit-vs-drain races the token design had to patch up cannot occur.
// close() keeps the drain guarantee — queued jobs are still claimable
// until the backlog is empty, then claim() reports end-of-stream.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "service/job.h"

namespace sarbp::service {

/// Per-tenant scheduling policy.
struct TenantPolicy {
  /// Relative share of a scheduling class; higher drains faster.
  double weight = 1.0;
  /// Max jobs the tenant may have queued (not yet claimed) across all
  /// classes; 0 = unlimited.
  std::size_t quota = 0;
};

enum class AdmitResult { kAdmitted, kQueueFull, kQuotaExceeded, kClosed };

struct FairSchedulerConfig {
  std::size_t max_pending = 64;
  TenantPolicy default_policy;
  /// Explicit per-tenant overrides; any other tenant (including the empty
  /// tenant) uses default_policy.
  std::map<std::string, TenantPolicy> tenants;
  obs::Registry* metrics = nullptr;
};

class FairScheduler {
 public:
  using JobPtr = std::shared_ptr<JobHandle>;

  explicit FairScheduler(FairSchedulerConfig config);

  /// Admission, never waiting: kQuotaExceeded past the tenant's quota,
  /// kQueueFull on a full pending set, kClosed after close().
  AdmitResult submit(const JobPtr& job);

  /// Claims the next job by (priority, weighted-fair, FIFO) order. Null
  /// with *end set once closed and drained. Otherwise a non-waiting claim
  /// (the executor's source) returns null when nothing is claimable, and a
  /// waiting one (the shard route thread) blocks until a job is claimable
  /// or close() runs.
  JobPtr claim(bool wait, bool* end);

  /// While paused, claim() hands out nothing (the service's start_paused
  /// gate); admission is unaffected. Unpausing wakes waiting claims.
  void set_paused(bool paused);

  /// Stops admission. Queued jobs stay claimable (the drain guarantee).
  void close();

  [[nodiscard]] std::size_t pending() const;

 private:
  struct Entry {
    JobPtr job;
    double finish = 0.0;  ///< SFQ virtual finish tag
    double start = 0.0;
  };
  struct TenantQueue {
    std::deque<Entry> entries;
    double last_finish = 0.0;
  };
  struct ClassState {
    /// std::map: deterministic tie-break order over tenant names.
    std::map<std::string, TenantQueue> tenants;
    double vtime = 0.0;
    std::size_t jobs = 0;
  };

  [[nodiscard]] const TenantPolicy& policy_for(const std::string& tenant) const;
  [[nodiscard]] JobPtr pop_best_locked() SARBP_REQUIRES(mutex_);
  void update_gauge_locked() SARBP_REQUIRES(mutex_);

  FairSchedulerConfig config_;
  obs::Registry* metrics_;

  mutable Mutex mutex_{SARBP_LOCK_LEVEL("service.fair")};
  CondVar claim_cv_;  ///< waiting claims; signalled on admit, unpause, close
  std::array<ClassState, kNumPriorities> classes_ SARBP_GUARDED_BY(mutex_);
  /// Queued-job count per tenant, across classes (the quota basis).
  std::map<std::string, std::size_t> tenant_queued_ SARBP_GUARDED_BY(mutex_);
  std::size_t pending_ SARBP_GUARDED_BY(mutex_) = 0;
  bool closed_ SARBP_GUARDED_BY(mutex_) = false;
  bool paused_ SARBP_GUARDED_BY(mutex_) = false;

  obs::Gauge* pending_gauge_ = nullptr;
};

}  // namespace sarbp::service
