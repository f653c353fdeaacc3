#include "service/job.h"

#include "exec/task_group.h"

namespace sarbp::service {

JobHandle::JobHandle(ImageFormationRequest req, obs::Registry* metrics,
                     std::atomic<std::uint64_t>* completion_seq)
    : request_(std::move(req)),
      submitted_(std::chrono::steady_clock::now()),
      metrics_(metrics),
      completion_seq_(completion_seq) {}

std::optional<double> JobHandle::dequeue() {
  const auto now = std::chrono::steady_clock::now();
  const double queued_for =
      std::chrono::duration<double>(now - submitted_).count();
  if (obs::kEnabled && metrics_ != nullptr) {
    metrics_->histogram("service.job.queue_s").record(queued_for);
  }
  {
    MutexLock lock(mutex_);
    if (state() == JobState::kQueued) {
      if (!request_.deadline.has_value() || now <= *request_.deadline) {
        // order: release — keeps the lock-free state() contract uniform;
        // the transition itself is serialized by mutex_.
        state_.store(JobState::kRunning, std::memory_order_release);
        return queued_for;
      }
      result_.error = "deadline passed while queued";
      result_.queue_seconds = queued_for;
      finish_locked(JobState::kExpired);
    }
  }
  if (request_.custom_abandoned) request_.custom_abandoned(state());
  return std::nullopt;
}

JobState JobHandle::resolve(JobState outcome, JobStamps stamps) {
  MutexLock lock(mutex_);
  if (is_terminal(state())) return state();  // the first transition wins
  result_.queue_seconds = stamps.queue_seconds;
  result_.setup_seconds = stamps.setup_seconds;
  result_.compute_seconds = stamps.compute_seconds;
  result_.plan_cache_hit = stamps.plan_cache_hit;
  result_.plan_unkept = stamps.plan_unkept;
  result_.error = std::move(stamps.error);
  if (outcome == JobState::kDone) result_.image = std::move(stamps.image);
  finish_locked(outcome);
  return outcome;
}

void JobHandle::finish_locked(JobState terminal) {
  result_.state = terminal;
  result_.latency_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - submitted_)
                                .count();
  if (completion_seq_ != nullptr) {
    result_.completion_index =
        // order: relaxed — a pure ticket counter: atomicity gives each
        // finished job a unique, monotonically assigned index, and the
        // index is published to readers by the release store of state_
        // below.
        completion_seq_->fetch_add(1, std::memory_order_relaxed);
  }
  if (metrics_ != nullptr) {
    metrics_->counter(std::string("service.jobs.") + job_state_name(terminal))
        .add();
    metrics_->histogram(std::string("service.job.latency_s.") +
                        priority_name(request_.priority))
        .record(result_.latency_seconds);
    if (!request_.tenant.empty()) {
      metrics_->counter("tenant." + request_.tenant + ".jobs." +
                        job_state_name(terminal))
          .add();
      metrics_->histogram("tenant." + request_.tenant + ".latency_s")
          .record(result_.latency_seconds);
    }
  }
  // order: release — publishes result_ to lock-free state() readers (see
  // state()); waiters under the lock are woken below.
  state_.store(terminal, std::memory_order_release);
  cv_.notify_all();
}

bool RunVerdict::poll() {
  if (hook_) hook_();
  JobState trip = JobState::kCancelled;
  if (!job_->cancel_requested()) {
    const auto& deadline = job_->request().deadline;
    if (!deadline || std::chrono::steady_clock::now() <= *deadline) {
      return true;
    }
    trip = JobState::kExpired;
  }
  JobState untripped = JobState::kRunning;
  tripped_.compare_exchange_strong(untripped, trip);
  return false;
}

JobState RunVerdict::settle(JobState proposed, std::string* error) const {
  const JobState trip = tripped_.load();
  if (trip == JobState::kRunning) return proposed;
  *error = trip == JobState::kCancelled ? "cancelled while running"
                                        : "deadline passed while running";
  return trip;
}

JobState RunVerdict::settle(const exec::TaskGroup& group, const char* fallback,
                            std::string* error) const {
  if (!group.aborted()) return settle(JobState::kDone, error);
  *error = group.error().empty() ? fallback : group.error();
  return settle(JobState::kFailed, error);
}

}  // namespace sarbp::service
