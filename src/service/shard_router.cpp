#include "service/shard_router.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <utility>

#include "backprojection/partition.h"
#include "common/check.h"
#include "common/grid2d.h"
#include "common/timer.h"

namespace sarbp::service {
namespace {

/// Mailbox tags of the dispatch/gather protocol. One tag per direction is
/// enough: mailboxes match on (source, tag) and deliver FIFO within a key,
/// and both the dispatch stream per shard and the gather stream per shard
/// are processed strictly in order.
constexpr int kTagShardJob = 120;
constexpr int kTagShardReply = 121;

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
              "service.gather", metrics_),
      // The rank pool starts inside this initializer: everything
      // worker_loop touches (config_, metrics_, the ctx table) is
      // initialized above it, and the first dispatch cannot arrive before
      // the constructor returns.
      cluster_(config_.shards,
               [this](cluster::Communicator& comm) { worker_loop(comm); }) {
  ensure(config_.shards >= 1, "ShardRouter: shards must be positive");
  ensure(config_.shard_workers >= 1,
         "ShardRouter: shard_workers must be positive");
  ensure(config_.plan_cache != nullptr, "ShardRouter: plan cache required");
  if constexpr (obs::kEnabled) {
    jobs_single_ = &metrics_->counter("shard.jobs.single");
    jobs_pulse_scatter_ = &metrics_->counter("shard.jobs.pulse_scatter");
    jobs_grid_split_ = &metrics_->counter("shard.jobs.grid_split");
    parts_dispatched_ = &metrics_->counter("shard.parts.dispatched");
    inflight_gauge_ = &metrics_->gauge("shard.jobs.inflight");
    setup_s_ = &metrics_->histogram("service.job.setup_s");
    compute_s_ = &metrics_->histogram("service.job.compute_s");
    gather_s_ = &metrics_->histogram("shard.job.gather_s");
  }
  gather_thread_ = std::thread([this] { gather_loop(); });
}

ShardRouter::~ShardRouter() { shutdown(); }

void ShardRouter::shutdown() {
  bool expected = false;
  if (!shut_down_.compare_exchange_strong(expected, true)) return;
  // Sentinels queue FIFO behind every already-dispatched job message, so
  // each rank finishes its backlog first. Aborted ranks are already gone;
  // the sentinel just sits in a mailbox nobody reads.
  for (int s = 0; s < config_.shards; ++s) {
    cluster_.frontend().send_value(s, kTagShardJob, DispatchMsg{});
  }
  gather_.close();  // gather drains the dispatched backlog, then exits
  if (gather_thread_.joinable()) gather_thread_.join();
  cluster_.join();
}

int ShardRouter::pick_home_shard(const JobPtr& job, std::uint64_t seq) const {
  const std::string& tenant = job->tenant();
  const std::uint64_t key = tenant.empty() ? seq : fnv1a(tenant);
  return static_cast<int>(key % static_cast<std::uint64_t>(config_.shards));
}

void ShardRouter::split_job(ShardJobCtx& ctx) {
  const auto& request = ctx.job->request();
  const Region region = ctx.region;
  const Index pulses = request.pulses->num_pulses();
  const Index shards = config_.shards;

  const auto single = [&] {
    ctx.parts.push_back(
        ShardPart{pick_home_shard(ctx.job, ctx.seq), region, 0, pulses});
    if (jobs_single_) jobs_single_->add();
  };

  // Band cuts land on ASR block boundaries relative to the region origin,
  // so each band's plan blocks coincide with the full-region plan's blocks
  // and the assembled image is bit-identical to the single-node result.
  const auto try_grid_split = [&]() -> bool {
    const Index blocks_y =
        (region.height + request.asr_block_h - 1) / request.asr_block_h;
    const Index blocks_x =
        (region.width + request.asr_block_w - 1) / request.asr_block_w;
    const bool by_rows = blocks_y >= 2;
    if (!by_rows && blocks_x < 2) return false;
    const Index bands = by_rows ? blocks_y : blocks_x;
    const Index edge = by_rows ? request.asr_block_h : request.asr_block_w;
    const Index extent = by_rows ? region.height : region.width;
    const Index k = std::min<Index>(shards, bands);
    for (Index i = 0; i < k; ++i) {
      const Index c0 = bp::split_begin(bands, k, i) * edge;
      const Index c1 = std::min(bp::split_begin(bands, k, i + 1) * edge, extent);
      const Region band =
          by_rows ? Region{region.x0, region.y0 + c0, region.width, c1 - c0}
                  : Region{region.x0 + c0, region.y0, c1 - c0, region.height};
      ctx.parts.push_back(ShardPart{static_cast<int>(i), band, 0, pulses});
    }
    if (jobs_grid_split_) jobs_grid_split_->add();
    return true;
  };

  // The front end looks up the one shared full-region plan; each shard
  // sweeps a disjoint pulse range of it, from its tables on a hit and with
  // tables built on the fly on an unkept miss.
  const auto try_pulse_scatter = [&]() -> bool {
    if (pulses < 2) return false;
    Timer setup_timer;
    const PlanLookup lookup =
        lookup_plan(*config_.plan_cache, request.grid, region,
                    request.asr_block_w, request.asr_block_h, *request.pulses);
    ctx.plan = lookup.plan;
    ctx.stamps.plan_cache_hit = lookup.hit();
    ctx.stamps.plan_unkept = lookup.unkept();
    if (lookup.insert_into != nullptr) {
      // A kept miss: every shard replays a pulse range of this one plan,
      // so its tables must all exist before the first dispatch.
      auto built = std::const_pointer_cast<FormationPlan>(lookup.plan);
      for (std::size_t b = 0; b < built->blocks.size(); ++b) {
        build_plan_block(*built, b, *request.pulses);
      }
      lookup.insert_into->insert(lookup.plan);
    }
    ctx.stamps.setup_seconds = setup_timer.seconds();
    if (setup_s_) setup_s_->record(ctx.stamps.setup_seconds);
    const Index k = std::min<Index>(shards, pulses);
    for (Index i = 0; i < k; ++i) {
      ctx.parts.push_back(ShardPart{static_cast<int>(i), region,
                                    bp::split_begin(pulses, k, i),
                                    bp::split_begin(pulses, k, i + 1)});
    }
    if (jobs_pulse_scatter_) jobs_pulse_scatter_->add();
    return true;
  };

  if (shards > 1 && region.pixels() > config_.small_job_pixels &&
      (try_grid_split() || try_pulse_scatter())) {
    return;
  }
  single();
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
  {
    // Published before any dispatch message: a shard's lookup must win.
    MutexLock lock(table_mutex_);
    inflight_.emplace(ctx->seq, ctx);
  }
  for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
    DispatchMsg msg;
    msg.seq = ctx->seq;
    msg.part = static_cast<std::int32_t>(i);
    cluster_.frontend().send_value(ctx->parts[i].shard, kTagShardJob, msg);
  }
  if (parts_dispatched_) parts_dispatched_->add(ctx->parts.size());
  if (!gather_.push(ctx)) {
    // Defensive: shutdown() closed the gather queue under us (callers stop
    // dispatching first). Resolve the handle rather than leak a waiter.
    JobStamps stamps = ctx->stamps;
    stamps.error = "service shutting down";
    job->resolve(JobState::kFailed, std::move(stamps));
    MutexLock lock(table_mutex_);
    inflight_.erase(ctx->seq);
    if (inflight_gauge_) inflight_gauge_->add(-1);
  }
}

ShardRouter::CtxPtr ShardRouter::find_ctx(std::uint64_t seq) const {
  MutexLock lock(table_mutex_);
  const auto it = inflight_.find(seq);
  return it != inflight_.end() ? it->second : nullptr;
}

void ShardRouter::worker_loop(cluster::Communicator& comm) {
  const int shard = comm.rank();
  const int frontend = comm.size() - 1;
  exec::ExecOptions exec_options;
  exec_options.workers = config_.shard_workers;
  exec_options.steal = config_.steal;
  exec_options.metrics = metrics_;
  exec_options.metric_prefix = "shard." + std::to_string(shard) + ".";
  exec::TileExecutor exec(exec_options);

  for (;;) {
    const auto msg = comm.recv_value<DispatchMsg>(frontend, kTagShardJob);
    if (msg.seq == 0) break;  // shutdown sentinel
    if (config_.shard_fault_hook) config_.shard_fault_hook(shard, msg.seq);
    const CtxPtr ctx = find_ctx(msg.seq);
    ensure(ctx != nullptr, "ShardRouter: dispatch for unknown job");
    comm.send(frontend, kTagShardReply, run_part(exec, *ctx, msg));
  }
}

std::vector<std::byte> ShardRouter::run_part(exec::TileExecutor& exec,
                                             const ShardJobCtx& ctx,
                                             const DispatchMsg& msg) {
  ensure(msg.part >= 0 &&
             static_cast<std::size_t>(msg.part) < ctx.parts.size(),
         "ShardRouter: part index out of range");
  const ShardPart& part = ctx.parts[static_cast<std::size_t>(msg.part)];

  ReplyHeader header;
  header.seq = msg.seq;
  header.part = msg.part;
  std::string error;
  std::shared_ptr<Grid2D<CFloat>> image;
  Timer compute_timer;
  try {
    const auto& request = ctx.job->request();
    PlanLookup lookup{ctx.plan, nullptr};
    if (lookup.plan == nullptr) {
      // Single-shard and grid-split routes plan their own (sub-)region
      // through the shared cache and the local service's miss path.
      lookup = lookup_plan(*config_.plan_cache, request.grid, part.region,
                           request.asr_block_w, request.asr_block_h,
                           *request.pulses);
      header.cache_hit = lookup.hit() ? 1 : 0;
      header.unkept = lookup.unkept() ? 1 : 0;
    }

    auto verdict =
        std::make_shared<RunVerdict>(ctx.job, config_.inter_block_hook);
    // The replay's tasks add each finished block straight into the part's
    // image, the reply's payload.
    image = std::make_shared<Grid2D<CFloat>>(part.region.width,
                                             part.region.height);
    auto group = make_plan_replay_group(
        std::move(lookup.plan), request.pulses, config_.shard_workers,
        config_.tile_tasks, image, [verdict] { return verdict->poll(); },
        nullptr, part.pulse_begin, part.pulse_end, nullptr,
        lookup.insert_into);
    exec.run(group);
    header.compute_seconds = compute_timer.seconds();
    header.status = verdict->settle(*group, "part aborted", &error);
  } catch (const cluster::ClusterAborted&) {
    throw;  // the cluster is poisoned; no reply will be read
  } catch (const std::exception& e) {
    header.status = JobState::kFailed;
    header.compute_seconds = compute_timer.seconds();
    error = e.what();
  }

  const bool done = header.status == JobState::kDone;
  const std::size_t payload_size =
      done ? static_cast<std::size_t>(image->size()) * sizeof(CFloat)
           : error.size();
  std::vector<std::byte> reply(sizeof(ReplyHeader) + payload_size);
  std::memcpy(reply.data(), &header, sizeof(header));
  if (payload_size > 0) {
    const void* payload = done ? static_cast<const void*>(image->data())
                               : static_cast<const void*>(error.data());
    std::memcpy(reply.data() + sizeof(header), payload, payload_size);
  }
  return reply;
}

void ShardRouter::gather_loop() {
  // Close-then-drain: after shutdown() every already-dispatched job is
  // still popped and resolved before the thread exits.
  while (auto popped = gather_.pop()) {
    const CtxPtr ctx = std::move(*popped);
    Timer gather_timer;
    finish_job(*ctx);
    if (gather_s_) gather_s_->record(gather_timer.seconds());
    {
      MutexLock lock(table_mutex_);
      inflight_.erase(ctx->seq);
    }
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
  // Pulse-scatter parts cover the whole region and sum; the disjoint
  // routes (single shard, grid split) copy their band verbatim, keeping
  // the assembled bytes exactly the part bytes.
  const bool sum_parts = ctx.plan != nullptr;

  // Every part's reply is read, whatever became of the parts before it:
  // a reply left in a shard's mailbox would be taken for the next job's.
  for (std::size_t i = 0; i < ctx.parts.size(); ++i) {
    const ShardPart& part = ctx.parts[i];
    try {
      const std::vector<std::byte> bytes =
          cluster_.frontend().recv(part.shard, kTagShardReply);
      ensure(bytes.size() >= sizeof(ReplyHeader), "ShardRouter: short reply");
      ReplyHeader header;
      std::memcpy(&header, bytes.data(), sizeof(header));
      ensure(header.seq == ctx.seq &&
                 header.part == static_cast<std::int32_t>(i),
             "ShardRouter: reply out of order");
      stamps.compute_seconds =
          std::max(stamps.compute_seconds, header.compute_seconds);
      stamps.plan_cache_hit = stamps.plan_cache_hit || header.cache_hit != 0;
      stamps.plan_unkept = stamps.plan_unkept || header.unkept != 0;
      const std::byte* payload = bytes.data() + sizeof(header);
      const std::size_t payload_size = bytes.size() - sizeof(header);
      if (header.status != JobState::kDone) {
        merge(header.status, std::string(reinterpret_cast<const char*>(payload),
                                         payload_size));
        continue;
      }
      if (outcome != JobState::kDone) continue;  // no image to assemble
      ensure(payload_size == static_cast<std::size_t>(part.region.pixels()) *
                                 sizeof(CFloat),
             "ShardRouter: tile size mismatch");
      // Allocated at the first done part, inside this guard: a region too
      // large to hold fails the job instead of ending the process.
      if (stamps.image.empty()) {
        stamps.image = Grid2D<CFloat>(region.width, region.height);
      }
      const auto* tile = reinterpret_cast<const CFloat*>(payload);
      if (sum_parts) {
        // Shard-index order — the documented reduction order of the
        // pulse-scatter route.
        auto flat = stamps.image.flat();
        for (std::size_t j = 0; j < flat.size(); ++j) flat[j] += tile[j];
      } else {
        const Index dx = part.region.x0 - region.x0;
        const Index dy = part.region.y0 - region.y0;
        for (Index y = 0; y < part.region.height; ++y) {
          std::memcpy(stamps.image.row(dy + y).data() + dx,
                      tile + y * part.region.width,
                      static_cast<std::size_t>(part.region.width) *
                          sizeof(CFloat));
        }
      }
    } catch (const cluster::ClusterAborted&) {
      // A rank died. Every un-replied part of this job (and of every job
      // behind it) resolves the same way, immediately — the fix for the
      // rank-failure hang, surfaced as a FAILED job instead of a stuck
      // wait().
      outcome = JobState::kFailed;
      const std::string reason = cluster_.abort_reason();
      stamps.error = reason.empty() ? std::string("shard cluster aborted")
                                    : "shard cluster aborted: " + reason;
    } catch (const std::exception& e) {
      merge(JobState::kFailed, e.what());
    }
  }

  if (compute_s_) compute_s_->record(stamps.compute_seconds);
  ctx.job->resolve(outcome, std::move(stamps));
}

}  // namespace sarbp::service
