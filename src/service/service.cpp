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
      plan_cache_(config_.plan_cache_capacity, metrics_) {
  ensure(config_.workers > 0, "ImageFormationService: workers must be positive");
  ensure(config_.max_pending > 0,
         "ImageFormationService: max_pending must be positive");

  FairSchedulerConfig sched_config;
  sched_config.max_pending = config_.max_pending;
  sched_config.default_policy = config_.default_tenant_policy;
  sched_config.tenants = config_.tenant_policies;
  sched_config.metrics = metrics_;
  sched_ = std::make_unique<FairScheduler>(std::move(sched_config));
  sched_->set_paused(config_.start_paused);

  if constexpr (obs::kEnabled) {
    submitted_ = &metrics_->counter("service.jobs.submitted");
    busy_gauge_ = &metrics_->gauge("service.workers.busy");
    setup_s_ = &metrics_->histogram("service.job.setup_s");
    compute_s_ = &metrics_->histogram("service.job.compute_s");
  }

  if (config_.shards >= 2) {
    ShardRouterConfig router_config;
    router_config.shards = config_.shards;
    router_config.shard_workers = config_.shard_workers;
    router_config.steal = config_.steal;
    router_config.small_job_pixels = config_.shard_small_pixels;
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
          config_.backends, exec::kRateSmoothing, metrics_);
    }
    exec::ExecOptions exec_options;
    exec_options.workers = config_.workers;
    exec_options.steal = config_.steal;
    exec_options.metrics = metrics_;
    exec_options.source = [this](bool* end) { return next_group(end); };
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
  // only the fair scheduler's cost basis); formation jobs need them, every
  // sample finite (a NaN or Inf sample would deliver non-finite pixels).
  // The geometry checks apply to both. Custom jobs cannot ride the sharded
  // path — an opaque factory has no rank-side replay.
  const bool needs_pulses = !request.custom;
  if ((needs_pulses && (request.pulses == nullptr ||
                        request.pulses->num_pulses() <= 0 ||
                        !request.pulses->samples_finite())) ||
      (request.pulses != nullptr && request.pulses->num_pulses() <= 0) ||
      (request.custom && sharded()) ||
      !region.inside(request.grid.width(), request.grid.height()) ||
      request.asr_block_w <= 0 || request.asr_block_h <= 0) {
    return reject(RejectReason::kInvalidRequest);
  }

  auto job =
      JobPtr(new JobHandle(std::move(request), metrics_, &completion_seq_));

  switch (sched_->submit(job)) {
    case AdmitResult::kAdmitted:
      if (submitted_) submitted_->add();
      if (exec_) exec_->wake();  // parked workers claim it
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
  sched_->set_paused(false);
  if (exec_) exec_->wake();  // workers that found the gate shut rescan
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

exec::GroupPtr ImageFormationService::next_group(bool* end) {
  // Claims past jobs that resolve without compute (expired or cancelled
  // while queued, a failed setup, a factory that resolved its own job): no
  // wake() follows for the jobs queued behind them, so returning null here
  // would strand those.
  while (JobPtr job = sched_->claim(/*wait=*/false, end)) {
    if (exec::GroupPtr group = build_job_group(job)) return group;
  }
  return nullptr;
}

void ImageFormationService::route_loop() {
  for (;;) {
    bool end = false;
    // Blocks until a job is claimable (admitted, gate open) or the
    // scheduler closes. The drain guarantee: null only once closed with
    // the backlog empty, so every admitted job has been dispatched by the
    // time we exit.
    JobPtr job = sched_->claim(/*wait=*/true, &end);
    if (job == nullptr) return;
    router_->dispatch(job);
  }
}

exec::GroupPtr ImageFormationService::build_job_group(const JobPtr& job) {
  const std::optional<double> queued_for = job->dequeue();
  if (!queued_for) return nullptr;
  if (busy_gauge_) busy_gauge_->add(1);
  // Every exit of a job this worker started: the replay's completion, a
  // custom job's finish, and the setup guard below.
  const auto resolve = [this, job](JobState outcome, JobStamps stamps) {
    if (busy_gauge_) busy_gauge_->add(-1);
    return job->resolve(outcome, std::move(stamps));
  };
  JobStamps stamps;
  stamps.queue_seconds = *queued_for;
  try {
    const ImageFormationRequest& request = job->request();
    auto verdict = std::make_shared<RunVerdict>(job, config_.inter_block_hook);
    auto checkpoint = [verdict] { return verdict->poll(); };

    if (request.custom) {
      // Custom job: the factory builds the group, the service supplies the
      // lifecycle — the replay's checkpoint, and a finish in which the
      // verdict overrides the factory's proposed outcome.
      CustomJobContext cctx;
      cctx.checkpoint = std::move(checkpoint);
      cctx.finish = [this, resolve, verdict, stamps, compute = Timer()](
                        JobState proposed, const std::string& message) {
        JobStamps run = stamps;
        run.compute_seconds = compute.seconds();
        if (compute_s_) compute_s_->record(run.compute_seconds);
        run.error = message;
        return resolve(verdict->settle(proposed, &run.error), std::move(run));
      };
      return request.custom(cctx);
    }

    // A hit is the whole setup; a kept miss yields a skeleton whose tables
    // the replay tasks build, and an unkept miss a table-less plan whose
    // tables they build on the fly, so that cost lands in compute.
    const Region region = request.effective_region();
    Timer setup_timer;
    PlanLookup lookup =
        lookup_plan(plan_cache_, request.grid, region, request.asr_block_w,
                    request.asr_block_h, *request.pulses);
    stamps.setup_seconds = setup_timer.seconds();
    if (setup_s_) setup_s_->record(stamps.setup_seconds);
    stamps.plan_cache_hit = lookup.hit();
    stamps.plan_unkept = lookup.unkept();

    const Timer compute;
    // The replay's tasks add each finished block straight into the image.
    auto image = std::make_shared<Grid2D<CFloat>>(region.width, region.height);
    // Runs on whichever worker retires the job's last task: publish the
    // image (or the failure) and resolve the handle. The claiming worker
    // has long since moved on to the next claim. A kept miss's group has
    // inserted its finished plan by then, so a repeat submitted after this
    // resolves hits.
    auto done = [this, resolve, verdict, image, stamps,
                 compute](exec::TaskGroup& group) {
      JobStamps run = stamps;
      run.compute_seconds = compute.seconds();
      if (compute_s_) compute_s_->record(run.compute_seconds);
      const JobState outcome =
          verdict->settle(group, "job aborted", &run.error);
      if (outcome == JobState::kDone) run.image = std::move(*image);
      resolve(outcome, std::move(run));
    };
    return make_plan_replay_group(std::move(lookup.plan), request.pulses,
                                  config_.workers, /*tile_tasks=*/0,
                                  image, std::move(checkpoint),
                                  std::move(done), /*pulse_begin=*/0,
                                  /*pulse_end=*/-1, backend_set_,
                                  lookup.insert_into);
  } catch (const std::exception& e) {
    // Nothing was handed off: the plan lookup, the image, the group build
    // or a custom factory threw.
    stamps.error = e.what();
    resolve(JobState::kFailed, std::move(stamps));
    return nullptr;
  }
}

}  // namespace sarbp::service
