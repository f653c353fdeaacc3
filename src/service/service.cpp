#include "service/service.h"

#include <exception>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace sarbp::service {

ImageFormationService::ImageFormationService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::registry()),
      plan_cache_(config_.plan_cache_capacity, metrics_),
      gate_open_(!config_.start_paused) {
  ensure(config_.workers > 0, "ImageFormationService: workers must be positive");
  ensure(config_.max_pending > 0,
         "ImageFormationService: max_pending must be positive");

  FairSchedulerConfig sched_config;
  sched_config.max_pending = config_.max_pending;
  sched_config.default_policy = config_.default_tenant_policy;
  sched_config.tenants = config_.tenant_policies;
  sched_config.metrics = metrics_;
  sched_ = std::make_unique<FairScheduler>(std::move(sched_config));

  if constexpr (obs::kEnabled) {
    submitted_ = &metrics_->counter("service.jobs.submitted");
    busy_gauge_ = &metrics_->gauge("service.workers.busy");
    queue_s_ = &metrics_->histogram("service.job.queue_s");
    setup_s_ = &metrics_->histogram("service.job.setup_s");
    compute_s_ = &metrics_->histogram("service.job.compute_s");
  }

  if (config_.shards >= 2) {
    ShardRouterConfig router_config;
    router_config.shards = config_.shards;
    router_config.shard_workers = config_.shard_workers;
    router_config.steal = config_.steal;
    router_config.tile_tasks = config_.tile_tasks;
    router_config.small_job_pixels = config_.shard_small_pixels;
    router_config.strategy = config_.shard_strategy;
    router_config.gather_capacity = config_.max_pending;
    router_config.inter_block_hook = config_.inter_block_hook;
    router_config.shard_fault_hook = config_.shard_fault_hook;
    router_config.metrics = metrics_;
    router_config.plan_cache = &plan_cache_;
    router_ = std::make_unique<ShardRouter>(std::move(router_config));
    route_thread_ = std::thread([this] { route_loop(); });
  } else {
    if (!config_.backends.empty()) {
      backend_set_ = std::make_shared<exec::BackendSet>(
          config_.backends, config_.backend_rate_smoothing, metrics_);
    }
    exec::ExecOptions exec_options;
    exec_options.workers = config_.workers;
    exec_options.steal = config_.steal;
    exec_options.metrics = metrics_;
    exec_options.source = [this](int worker, std::chrono::microseconds budget,
                                 bool* end) {
      return next_group(worker, budget, end);
    };
    exec_ = std::make_unique<exec::TileExecutor>(std::move(exec_options));
  }
}

ImageFormationService::~ImageFormationService() { drain(); }

SubmitOutcome ImageFormationService::reject(RejectReason reason) {
  if constexpr (obs::kEnabled) {
    // Cold path; the by-name lookup keeps one registration site per
    // reason and the names mechanically tied to reject_reason_name.
    metrics_->counter(std::string("service.rejected.") +
                      reject_reason_name(reason))
        .add();
  }
  return {nullptr, reason};
}

SubmitOutcome ImageFormationService::submit(ImageFormationRequest request) {
  // order: acquire — pairs with drain()'s release store; a submitter that
  // observes the flag also observes the closed scheduler behind it.
  if (draining_.load(std::memory_order_acquire)) {
    return reject(RejectReason::kShuttingDown);
  }
  const Region region = request.effective_region();
  // Custom jobs bring their own compute, so pulses are optional (they are
  // only the fair scheduler's cost basis); formation jobs need them. The
  // geometry checks apply to both. Custom jobs cannot ride the sharded
  // path — an opaque factory has no rank-side replay.
  const bool needs_pulses = !request.custom;
  if ((needs_pulses && (request.pulses == nullptr ||
                        request.pulses->num_pulses() <= 0)) ||
      (request.pulses != nullptr && request.pulses->num_pulses() <= 0) ||
      (request.custom && sharded()) || region.empty() ||
      request.asr_block_w <= 0 || request.asr_block_h <= 0 || region.x0 < 0 ||
      region.y0 < 0 || region.x0 + region.width > request.grid.width() ||
      region.y0 + region.height > request.grid.height()) {
    return reject(RejectReason::kInvalidRequest);
  }

  auto job = JobPtr(new JobHandle(std::move(request)));
  job->submitted_ = std::chrono::steady_clock::now();
  job->metrics_ = metrics_;
  job->completion_seq_ = &completion_seq_;

  switch (sched_->submit(job, config_.admission_grace)) {
    case AdmitResult::kAdmitted:
      if (submitted_) submitted_->add();
      return {std::move(job), RejectReason::kNone};
    case AdmitResult::kQueueFull:
      return reject(RejectReason::kQueueFull);
    case AdmitResult::kQuotaExceeded:
      return reject(RejectReason::kQuotaExceeded);
    case AdmitResult::kClosed:
      return reject(RejectReason::kShuttingDown);
  }
  return reject(RejectReason::kShuttingDown);  // unreachable
}

void ImageFormationService::resume() {
  {
    MutexLock lock(gate_mutex_);
    gate_open_ = true;
  }
  gate_cv_.notify_all();
}

void ImageFormationService::drain() {
  // order: release — pairs with submit()'s acquire load (see submit()).
  draining_.store(true, std::memory_order_release);
  resume();  // paused workers must run to drain the backlog
  sched_->close();
  if (exec_) exec_->drain();
  if (route_thread_.joinable()) route_thread_.join();
  if (router_) router_->shutdown();
}

void ImageFormationService::wait_gate() {
  MutexLock lock(gate_mutex_);
  while (!gate_open_) gate_cv_.wait(lock);
}

exec::GroupPtr ImageFormationService::next_group(
    int /*worker*/, std::chrono::microseconds budget, bool* end) {
  wait_gate();
  JobPtr job = sched_->claim(budget, end);
  if (job == nullptr) return nullptr;
  return build_job_group(job);
}

void ImageFormationService::route_loop() {
  for (;;) {
    wait_gate();
    bool end = false;
    JobPtr job = sched_->claim(std::chrono::milliseconds(50), &end);
    if (job != nullptr) {
      router_->dispatch(job);
      continue;
    }
    // The drain guarantee: end is only reported once the backlog is empty,
    // so every admitted job has been dispatched by the time we exit.
    if (end) return;
  }
}

namespace {

/// Shared outcome of one running job, written by whichever worker's
/// checkpoint trips first and read by the completion continuation.
struct RunCtx {
  Mutex mutex{SARBP_LOCK_LEVEL("service.runctx")};
  JobState outcome SARBP_GUARDED_BY(mutex) = JobState::kDone;
  std::string error SARBP_GUARDED_BY(mutex);
  std::chrono::steady_clock::time_point compute_start;

  void set_failure(JobState state, const char* message)
      SARBP_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (outcome == JobState::kDone) {
      outcome = state;
      error = message;
    }
  }
};

}  // namespace

exec::GroupPtr ImageFormationService::build_job_group(const JobPtr& job) {
  const auto now = std::chrono::steady_clock::now();
  const double queued_for =
      std::chrono::duration<double>(now - job->submitted_).count();
  if (queue_s_) queue_s_->record(queued_for);

  // Cancelled while queued (or dropped already-terminal at drain): the
  // handle is resolved, just drop it — after telling a custom submitter
  // its factory will never run.
  if (is_terminal(job->state())) {
    if (job->request_.custom_abandoned) {
      job->request_.custom_abandoned(job->state());
    }
    return nullptr;
  }

  const auto& request = job->request_;
  if (request.deadline.has_value() && now > *request.deadline) {
    {
      MutexLock lock(job->mutex_);
      if (!is_terminal(job->state())) {
        job->result_.error = "deadline passed while queued";
        job->result_.queue_seconds = queued_for;
        job->finish_locked(JobState::kExpired);
      }
    }
    if (request.custom_abandoned) request.custom_abandoned(job->state());
    return nullptr;
  }
  if (!job->start_running()) {
    // A cancel resolved the handle between the checks above and here.
    if (request.custom_abandoned) request.custom_abandoned(job->state());
    return nullptr;
  }
  if (busy_gauge_) busy_gauge_->add(1);

  // Cooperative checkpoint, polled before every ASR block sweep — now
  // possibly from several workers at once, so the outcome write is
  // serialized through the RunCtx (first trip wins).
  const auto make_checkpoint = [this, job](std::shared_ptr<RunCtx> ctx) {
    return [this, ctx, job]() -> bool {
      if (config_.inter_block_hook) config_.inter_block_hook();
      if (job->cancel_requested()) {
        ctx->set_failure(JobState::kCancelled, "cancelled while running");
        return false;
      }
      const auto& deadline = job->request_.deadline;
      if (deadline.has_value() &&
          std::chrono::steady_clock::now() > *deadline) {
        ctx->set_failure(JobState::kExpired, "deadline passed while running");
        return false;
      }
      return true;
    };
  };

  if (request.custom) {
    // Custom job: the factory builds the group, the service supplies the
    // lifecycle — the same checkpoint the plan replay polls, and a finish
    // that resolves the handle with the checkpoint verdict taking
    // precedence over the factory's proposed outcome.
    auto ctx = std::make_shared<RunCtx>();
    ctx->compute_start = std::chrono::steady_clock::now();
    CustomJobContext cctx;
    cctx.checkpoint = make_checkpoint(ctx);
    cctx.workers = config_.workers;
    cctx.tile_tasks = config_.tile_tasks;
    cctx.finish = [this, ctx, job, queued_for](
                      JobState proposed,
                      const std::string& message) -> JobState {
      const double compute_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        ctx->compute_start)
              .count();
      if (compute_s_) compute_s_->record(compute_seconds);
      JobState outcome;
      std::string error;
      {
        MutexLock lock(ctx->mutex);
        outcome = ctx->outcome;
        error = ctx->error;
      }
      if (outcome == JobState::kDone) {
        outcome = proposed;
        error = message;
      }
      if (busy_gauge_) busy_gauge_->add(-1);
      MutexLock lock(job->mutex_);
      // Lost a race to cancel(): report the state the job actually
      // resolved to, not the proposal.
      if (is_terminal(job->state())) return job->state();
      job->result_.queue_seconds = queued_for;
      job->result_.compute_seconds = compute_seconds;
      job->result_.error = std::move(error);
      job->finish_locked(outcome);
      return outcome;
    };
    exec::GroupPtr group;
    try {
      group = job->request_.custom(cctx);
    } catch (const std::exception& e) {
      cctx.finish(JobState::kFailed, e.what());
      return nullptr;
    }
    return group;
  }

  const Region region = request.effective_region();
  double setup_seconds = 0.0;
  PlanLookup lookup;
  try {
    // A hit is the whole setup; a miss yields a skeleton whose tables the
    // replay tasks build, so that cost lands in compute.
    Timer setup_timer;
    lookup = lookup_plan(plan_cache_, request.grid, region,
                         request.asr_block_w, request.asr_block_h,
                         *request.pulses);
    setup_seconds = setup_timer.seconds();
    if (setup_s_) setup_s_->record(setup_seconds);
  } catch (const std::exception& e) {
    if (busy_gauge_) busy_gauge_->add(-1);
    MutexLock lock(job->mutex_);
    if (!is_terminal(job->state())) {
      job->result_.queue_seconds = queued_for;
      job->result_.setup_seconds = setup_seconds;
      job->result_.error = e.what();
      job->finish_locked(JobState::kFailed);
    }
    return nullptr;
  }

  auto ctx = std::make_shared<RunCtx>();
  ctx->compute_start = std::chrono::steady_clock::now();
  auto checkpoint = make_checkpoint(ctx);

  auto tile = std::make_shared<bp::SoaTile>(region.width, region.height);
  // Runs on whichever worker retires the job's last task: publish the
  // image (or the failure) and resolve the handle. The claiming worker has
  // long since moved on to the next claim. A miss group has inserted its
  // finished plan by then, so a repeat submitted after this resolves hits.
  auto done = [this, ctx, job, tile, region, cache_hit = lookup.hit(),
               setup_seconds, queued_for](exec::TaskGroup& group) {
    const double compute_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ctx->compute_start)
            .count();
    if (compute_s_) compute_s_->record(compute_seconds);

    JobState outcome;
    std::string error;
    {
      MutexLock lock(ctx->mutex);
      outcome = ctx->outcome;
      error = ctx->error;
    }
    if (outcome == JobState::kDone && group.aborted()) {
      // Aborted without a checkpoint verdict: a task threw.
      outcome = JobState::kFailed;
      error = group.error().empty() ? "job aborted" : group.error();
    }
    Grid2D<CFloat> image(0, 0);
    if (outcome == JobState::kDone) {
      image = Grid2D<CFloat>(region.width, region.height);
      tile->accumulate_into(image, Region{0, 0, region.width, region.height});
    }
    if (busy_gauge_) busy_gauge_->add(-1);

    MutexLock lock(job->mutex_);
    if (is_terminal(job->state())) return;  // lost a race to cancel()
    job->result_.queue_seconds = queued_for;
    job->result_.setup_seconds = setup_seconds;
    job->result_.compute_seconds = compute_seconds;
    job->result_.plan_cache_hit = cache_hit;
    job->result_.error = std::move(error);
    if (outcome == JobState::kDone) job->result_.image = std::move(image);
    job->finish_locked(outcome);
  };

  return make_plan_replay_group(std::move(lookup.plan), request.pulses,
                                config_.workers, config_.tile_tasks,
                                std::move(tile), std::move(checkpoint),
                                std::move(done), /*pulse_begin=*/0,
                                /*pulse_end=*/-1, backend_set_,
                                lookup.insert_into);
}

}  // namespace sarbp::service
