#include "service/shard_router.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "asr/block_plan.h"
#include "backprojection/partition.h"
#include "common/check.h"
#include "common/grid2d.h"
#include "common/timer.h"

namespace sarbp::service {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

/// Rank of a part outcome in the job's merge: failed > expired >
/// cancelled > done.
int severity(JobState s) {
  switch (s) {
    case JobState::kFailed: return 3;
    case JobState::kExpired: return 2;
    case JobState::kCancelled: return 1;
    default: return 0;
  }
}

}  // namespace

ShardRouter::ShardRouter(ShardRouterConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::registry()),
      gather_(config_.gather_capacity > 0 ? config_.gather_capacity : 1,
              "service.gather", metrics_) {
  ensure(config_.shards >= 1, "ShardRouter: shards must be positive");
  ensure(config_.shard_workers >= 1,
         "ShardRouter: shard_workers must be positive");
  ensure(config_.plan_cache != nullptr, "ShardRouter: plan cache required");
  if constexpr (obs::kEnabled) {
    jobs_single_ = &metrics_->counter("shard.jobs.single");
    jobs_grid_split_ = &metrics_->counter("shard.jobs.grid_split");
    parts_dispatched_ = &metrics_->counter("shard.parts.dispatched");
    inflight_gauge_ = &metrics_->gauge("shard.jobs.inflight");
    compute_s_ = &metrics_->histogram("service.job.compute_s");
    gather_s_ = &metrics_->histogram("shard.job.gather_s");
  }
  // No push to a rank channel ever blocks. The gather queue holds at most
  // gather_capacity jobs, so at most gather_capacity + 2 jobs are
  // dispatched and not yet gathered: those, the one the gather thread is
  // finishing and the one dispatch() is pushing. Each sends any one rank
  // at most one part, and a part is in its rank's inbox, in its sweep or
  // in its reply queue until the gather takes the reply.
  const std::size_t capacity = gather_.capacity() + 2;
  for (int s = 0; s < config_.shards; ++s) ranks_.emplace_back(capacity);
  try {
    for (int s = 0; s < config_.shards; ++s) {
      ranks_[static_cast<std::size_t>(s)].thread =
          std::thread([this, s] { rank_loop(s); });
    }
    gather_thread_ = std::thread([this] { gather_loop(); });
  } catch (...) {
    shutdown();  // joins the threads that did start
    throw;
  }
}

ShardRouter::~ShardRouter() { shutdown(); }

void ShardRouter::shutdown() {
  bool expected = false;
  if (!shut_down_.compare_exchange_strong(expected, true)) return;
  // Each rank sweeps what its inbox holds, then ends its loop.
  for (Rank& rank : ranks_) rank.inbox.close();
  gather_.close();  // gather drains the dispatched backlog, then exits
  if (gather_thread_.joinable()) gather_thread_.join();
  for (Rank& rank : ranks_) {
    if (rank.thread.joinable()) rank.thread.join();
  }
}

int ShardRouter::pick_home_shard(const JobPtr& job, std::uint64_t seq) const {
  const std::string& tenant = job->tenant();
  const std::uint64_t key = tenant.empty() ? seq : fnv1a(tenant);
  return static_cast<int>(key % static_cast<std::uint64_t>(config_.shards));
}

void ShardRouter::split_job(ShardJobCtx& ctx) {
  const auto& request = ctx.job->request();
  const Region region = ctx.region;
  // Cuts land on ASR block multiples from the region origin, so each band's
  // plan blocks are the full-region plan's and the gathered bands are the
  // local service's bytes.
  const bool by_rows =
      asr::block_count(region.height, request.asr_block_h) >= 2;
  const Index extent = by_rows ? region.height : region.width;
  const Index edge = asr::block_edge(
      extent, by_rows ? request.asr_block_h : request.asr_block_w);
  const Index bands = region.pixels() > config_.small_job_pixels
                          ? asr::block_count(extent, edge)
                          : 1;
  const Index k = std::min<Index>(config_.shards, bands);
  const Index home = pick_home_shard(ctx.job, ctx.seq);
  for (Index i = 0; i < k; ++i) {
    const Index c0 = bp::split_begin(bands, k, i) * edge;
    const Index c1 =
        i + 1 < k ? bp::split_begin(bands, k, i + 1) * edge : extent;
    const Region band =
        by_rows ? Region{region.x0, region.y0 + c0, region.width, c1 - c0}
                : Region{region.x0 + c0, region.y0, c1 - c0, region.height};
    ctx.parts.push_back(
        ShardPart{static_cast<int>((home + i) % config_.shards), band});
  }
  obs::Counter* route = k == 1 ? jobs_single_ : jobs_grid_split_;
  if (route) route->add();
}

void ShardRouter::dispatch(const JobPtr& job) {
  const std::optional<double> queued_for = job->dequeue();
  if (!queued_for) return;

  auto ctx = std::make_shared<ShardJobCtx>();
  ctx->seq = next_seq_++;
  ctx->job = job;
  ctx->region = job->request().effective_region();
  ctx->stamps.queue_seconds = *queued_for;
  try {
    split_job(*ctx);
  } catch (const std::exception& e) {
    ctx->stamps.error = e.what();
    job->resolve(JobState::kFailed, std::move(ctx->stamps));
    return;
  }

  if (inflight_gauge_) inflight_gauge_->add(1);
  // A closed inbox (a rank died) refuses the part: its rank's loop then
  // ends without replying to it, and the gather fails the job.
  std::size_t handed = 0;
  for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
    Rank& rank = ranks_[static_cast<std::size_t>(ctx->parts[i].shard)];
    handed += rank.inbox.push(PartTask{ctx, i}) ? 1 : 0;
  }
  if (parts_dispatched_) parts_dispatched_->add(handed);
  if (!gather_.push(ctx)) {
    // Defensive: shutdown() closed the gather queue under us (callers stop
    // dispatching first). Resolve the handle rather than leak a waiter.
    JobStamps stamps = ctx->stamps;
    stamps.error = "service shutting down";
    job->resolve(JobState::kFailed, std::move(stamps));
    if (inflight_gauge_) inflight_gauge_->add(-1);
  }
}

void ShardRouter::rank_loop(int shard) {
  Rank& rank = ranks_[static_cast<std::size_t>(shard)];
  try {
    exec::ExecOptions exec_options;
    exec_options.workers = config_.shard_workers;
    exec_options.steal = config_.steal;
    exec_options.metrics = metrics_;
    exec_options.metric_prefix = "shard." + std::to_string(shard) + ".";
    exec::TileExecutor exec(exec_options);
    while (std::optional<PartTask> task = rank.inbox.pop()) {
      if (config_.shard_fault_hook) {
        config_.shard_fault_hook(shard, task->ctx->seq);
      }
      // Never blocks (see the constructor), and only this loop's end
      // closes the reply queue.
      ensure(rank.replies.push(run_part(exec, *task->ctx, task->part)),
             "ShardRouter: reply queue closed under its rank");
    }
  } catch (const std::exception& e) {
    abort("shard rank " + std::to_string(shard) + " failed: " + e.what());
  } catch (...) {
    abort("shard rank " + std::to_string(shard) + " failed");
  }
  rank.replies.close();
}

ShardRouter::PartReply ShardRouter::run_part(exec::TileExecutor& exec,
                                             const ShardJobCtx& ctx,
                                             std::size_t part_index) {
  const ShardPart& part = ctx.parts[part_index];
  PartReply reply;
  reply.part = part_index;
  Timer compute_timer;
  try {
    // Each rank plans its band through the shared cache and the local
    // service's miss path.
    const auto& request = ctx.job->request();
    PlanLookup lookup =
        lookup_plan(*config_.plan_cache, request.grid, part.region,
                    request.asr_block_w, request.asr_block_h, *request.pulses);
    reply.cache_hit = lookup.hit();
    reply.unkept = lookup.unkept();

    auto verdict =
        std::make_shared<RunVerdict>(ctx.job, config_.inter_block_hook);
    // The replay's tasks add each finished block straight into the band's
    // image, which then moves into the reply.
    auto image = std::make_shared<Grid2D<CFloat>>(part.region.width,
                                                  part.region.height);
    auto group = make_plan_replay_group(
        std::move(lookup.plan), request.pulses, config_.shard_workers,
        /*tile_tasks=*/0, image, [verdict] { return verdict->poll(); },
        nullptr, /*pulse_begin=*/0, /*pulse_end=*/-1, nullptr,
        lookup.insert_into);
    exec.run(group);
    reply.compute_seconds = compute_timer.seconds();
    reply.status = verdict->settle(*group, "part aborted", &reply.error);
    if (reply.status == JobState::kDone) reply.image = std::move(*image);
  } catch (const std::exception& e) {
    reply.status = JobState::kFailed;
    reply.compute_seconds = compute_timer.seconds();
    reply.error = e.what();
  }
  return reply;
}

void ShardRouter::abort(const std::string& cause) {
  {
    MutexLock lock(abort_mutex_);
    if (abort_cause_.empty()) abort_cause_ = cause;
  }
  for (Rank& rank : ranks_) rank.inbox.close();
}

void ShardRouter::gather_loop() {
  // Close-then-drain: after shutdown() every already-dispatched job is
  // still popped and resolved before the thread exits.
  while (auto popped = gather_.pop()) {
    const CtxPtr ctx = std::move(*popped);
    Timer gather_timer;
    finish_job(*ctx);
    if (gather_s_) gather_s_->record(gather_timer.seconds());
    if (inflight_gauge_) inflight_gauge_->add(-1);
  }
}

void ShardRouter::finish_job(const ShardJobCtx& ctx) {
  const Region region = ctx.region;
  JobStamps stamps = ctx.stamps;
  JobState outcome = JobState::kDone;
  const auto merge = [&](JobState part_outcome, std::string error) {
    if (severity(part_outcome) > severity(outcome)) {
      outcome = part_outcome;
      stamps.error = std::move(error);
    }
  };
  // Every part's reply is read, whatever became of the parts before it:
  // a reply left in a rank's queue would be taken for the next job's.
  for (std::size_t i = 0; i < ctx.parts.size(); ++i) {
    const ShardPart& part = ctx.parts[i];
    std::optional<PartReply> reply =
        ranks_[static_cast<std::size_t>(part.shard)].replies.pop();
    if (!reply) {
      // The rank's loop ended short of this part: a rank died. This part
      // (and every later one on that rank) fails at once with the first
      // cause, instead of wedging the job's wait().
      outcome = JobState::kFailed;
      std::string cause;
      {
        MutexLock lock(abort_mutex_);
        cause = abort_cause_;
      }
      stamps.error = cause.empty() ? std::string("shard cluster aborted")
                                   : "shard cluster aborted: " + cause;
      continue;
    }
    try {
      ensure(reply->part == i, "ShardRouter: reply out of order");
      stamps.compute_seconds =
          std::max(stamps.compute_seconds, reply->compute_seconds);
      stamps.plan_cache_hit = stamps.plan_cache_hit || reply->cache_hit;
      stamps.plan_unkept = stamps.plan_unkept || reply->unkept;
      if (reply->status != JobState::kDone) {
        merge(reply->status, std::move(reply->error));
        continue;
      }
      if (outcome != JobState::kDone) continue;  // no image to assemble
      if (part.region == region) {
        stamps.image = std::move(reply->image);  // one band: the image
        continue;
      }
      // Allocated at the first done part, inside this guard: a region too
      // large to hold fails the job instead of ending the process.
      if (stamps.image.empty()) {
        stamps.image = Grid2D<CFloat>(region.width, region.height);
      }
      // Bands are disjoint: each is copied verbatim, so the assembled
      // bytes are exactly the part bytes.
      const Index dx = part.region.x0 - region.x0;
      const Index dy = part.region.y0 - region.y0;
      for (Index y = 0; y < part.region.height; ++y) {
        const auto band_row = reply->image.row(y);
        std::copy(band_row.begin(), band_row.end(),
                  stamps.image.row(dy + y).begin() + dx);
      }
    } catch (const std::exception& e) {
      merge(JobState::kFailed, e.what());
    }
  }

  if (compute_s_) compute_s_->record(stamps.compute_seconds);
  ctx.job->resolve(outcome, std::move(stamps));
}

}  // namespace sarbp::service
