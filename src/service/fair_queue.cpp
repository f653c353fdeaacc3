#include "service/fair_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace sarbp::service {
namespace {

/// Predicted work of a job in "megapixel-pulses": the block sweeps are
/// linear in region pixels × pulse count. Only ratios matter to SFQ; the
/// normalization just keeps the virtual clock in a human-readable range.
double job_cost(const JobHandle& job) {
  const Region region = job.request().effective_region();
  const double pixels = static_cast<double>(region.pixels());
  const double pulses =
      static_cast<double>(std::max<Index>(1, job.request().pulses != nullptr
                                                 ? job.request().pulses->num_pulses()
                                                 : 1));
  return std::max(1e-9, pixels * pulses / 1e6);
}

}  // namespace

FairScheduler::FairScheduler(FairSchedulerConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::registry()) {
  ensure(config_.max_pending > 0, "FairScheduler: max_pending must be positive");
  ensure(config_.default_policy.weight > 0.0,
         "FairScheduler: default weight must be positive");
  for (const auto& [name, policy] : config_.tenants) {
    ensure(policy.weight > 0.0,
           "FairScheduler: tenant weight must be positive: " + name);
  }
  if constexpr (obs::kEnabled) {
    pending_gauge_ = &metrics_->gauge("service.pending");
  }
}

const TenantPolicy& FairScheduler::policy_for(
    const std::string& tenant) const {
  const auto it = config_.tenants.find(tenant);
  return it != config_.tenants.end() ? it->second : config_.default_policy;
}

AdmitResult FairScheduler::submit(const JobPtr& job,
                                  std::chrono::milliseconds grace) {
  ensure(job != nullptr, "FairScheduler::submit: null job");
  const std::string& tenant = job->tenant();
  const TenantPolicy& policy = policy_for(tenant);

  MutexLock lock(mutex_);
  if (closed_) return AdmitResult::kClosed;
  if (policy.quota > 0 && tenant_queued_[tenant] >= policy.quota) {
    if constexpr (obs::kEnabled) {
      if (!tenant.empty()) {
        metrics_->counter("tenant." + tenant + ".rejected.quota").add();
      }
    }
    return AdmitResult::kQuotaExceeded;
  }
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (pending_ >= config_.max_pending && !closed_) {
    if (grace.count() <= 0 ||
        std::chrono::steady_clock::now() >= deadline) {
      return AdmitResult::kQueueFull;
    }
    // timeout: the service's admission_grace.
    space_cv_.wait_until(lock, deadline);
  }
  if (closed_) return AdmitResult::kClosed;
  // Re-check the quota: another submitter of the same tenant may have been
  // admitted while this one waited for pending space.
  if (policy.quota > 0 && tenant_queued_[tenant] >= policy.quota) {
    return AdmitResult::kQuotaExceeded;
  }

  ClassState& cls = classes_[static_cast<std::size_t>(job->priority())];
  TenantQueue& queue = cls.tenants[tenant];
  Entry entry;
  entry.start = std::max(cls.vtime, queue.last_finish);
  entry.finish = entry.start + job_cost(*job) / policy.weight;
  queue.last_finish = entry.finish;
  entry.job = job;
  queue.entries.push_back(std::move(entry));
  ++cls.jobs;
  ++tenant_queued_[tenant];
  ++pending_;
  update_gauge_locked();
  if constexpr (obs::kEnabled) {
    if (!tenant.empty()) {
      metrics_->counter("tenant." + tenant + ".submitted").add();
    }
  }
  claim_cv_.notify_one();
  return AdmitResult::kAdmitted;
}

FairScheduler::JobPtr FairScheduler::claim(bool wait, bool* end) {
  MutexLock lock(mutex_);
  for (;;) {
    if (JobPtr job = paused_ ? nullptr : pop_best_locked()) {
      update_gauge_locked();
      space_cv_.notify_one();
      return job;
    }
    if (closed_ && pending_ == 0) {
      *end = true;
      return nullptr;
    }
    if (!wait) return nullptr;
    claim_cv_.wait(lock);
  }
}

void FairScheduler::set_paused(bool paused) {
  {
    MutexLock lock(mutex_);
    paused_ = paused;
  }
  claim_cv_.notify_all();
}

FairScheduler::JobPtr FairScheduler::pop_best_locked() {
  for (auto& cls : classes_) {
    if (cls.jobs == 0) continue;
    std::map<std::string, TenantQueue>::iterator best = cls.tenants.end();
    for (auto it = cls.tenants.begin(); it != cls.tenants.end(); ++it) {
      if (it->second.entries.empty()) continue;
      // Strict less: on equal finish tags the first (lexicographically
      // smallest) tenant wins — a deterministic schedule the tests pin.
      if (best == cls.tenants.end() ||
          it->second.entries.front().finish <
              best->second.entries.front().finish) {
        best = it;
      }
    }
    ensure(best != cls.tenants.end(), "FairScheduler: class count desynced");
    Entry entry = std::move(best->second.entries.front());
    best->second.entries.pop_front();
    // SFQ virtual time: advance to the start tag of the job in service, so
    // tenants idling through a busy period get no unbounded credit.
    cls.vtime = std::max(cls.vtime, entry.start);
    --cls.jobs;
    --pending_;
    auto queued = tenant_queued_.find(best->first);
    ensure(queued != tenant_queued_.end() && queued->second > 0,
           "FairScheduler: tenant count desynced");
    --queued->second;
    return std::move(entry.job);
  }
  return nullptr;
}

void FairScheduler::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
  }
  // Waking everyone is a shutdown-path cost only. Claimers drain the
  // backlog then see end-of-stream; blocked submitters give up.
  claim_cv_.notify_all();
  space_cv_.notify_all();
}

std::size_t FairScheduler::pending() const {
  MutexLock lock(mutex_);
  return pending_;
}

void FairScheduler::update_gauge_locked() {
  if (pending_gauge_ != nullptr) {
    pending_gauge_->set(static_cast<std::int64_t>(pending_));
  }
}

}  // namespace sarbp::service
