#include "streaming/streaming.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "backprojection/asr_sweep.h"
#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/check.h"
#include "exec/formation_tasks.h"

namespace sarbp::streaming {
namespace {

/// The session's ASR kernel, resolved once at open so every update of a
/// session uses one kernel: the widest usable vector ISA under use_simd,
/// the scalar sweep otherwise.
bp::AsrKernel stream_kernel(const StreamConfig& config) {
  return bp::AsrKernel{config.use_simd
                           ? bp::asr_resolve_isa(bp::SimdIsa::kAuto)
                           : bp::SimdIsa::kScalar};
}

/// Pulses of a whole history.
bp::PulseRange all_pulses(const sim::PhaseHistory& history) {
  return {&history, 0, history.num_pulses()};
}

Region effective_region(const StreamConfig& config) {
  return config.region.empty()
             ? Region{0, 0, config.grid.width(), config.grid.height()}
             : config.region;
}

}  // namespace

class StreamSession::Impl : public std::enable_shared_from_this<Impl> {
 public:
  Impl(service::ImageFormationService& service, StreamConfig config)
      : service_(service),
        config_(std::move(config)),
        region_(effective_region(config_)),
        blocks_(asr::plan_blocks(region_.x0, region_.y0, region_.width,
                                 region_.height, config_.asr_block_w,
                                 config_.asr_block_h)),
        kernel_(stream_kernel(config_)),
        window_(region_.width, region_.height, config_.window_chunks) {
    if constexpr (obs::kEnabled) {
      auto& reg = service_.metrics();
      opened_ = &reg.counter("streaming.sessions.opened");
      closed_counter_ = &reg.counter("streaming.sessions.closed");
      completed_ = &reg.counter("streaming.updates.completed");
      failed_ = &reg.counter("streaming.updates.failed");
      cancelled_ = &reg.counter("streaming.updates.cancelled");
      expired_counter_ = &reg.counter("streaming.updates.expired");
      rejected_ = &reg.counter("streaming.updates.rejected");
      reanchors_ = &reg.counter("streaming.reanchors");
      ops_counter_ = &reg.counter("streaming.backprojections");
      latency_s_ = &reg.histogram("streaming.update.latency_s");
    }
    if (opened_) opened_->add();
  }

  ~Impl() { close(); }

  bool push(const sim::PhaseHistory& pulses) SARBP_EXCLUDES(mutex_) {
    // A NaN or Inf sample would reach every image whose window holds its
    // chunk; the batch is refused whole, before any pulse is buffered.
    if (!pulses.samples_finite()) return false;
    MutexLock lock(mutex_);
    if (closed_) return false;
    if (pulses.num_pulses() <= 0 || pulses.samples_per_pulse() <= 0) {
      return false;
    }
    if (!have_params_) {
      samples_ = pulses.samples_per_pulse();
      bin_spacing_ = pulses.bin_spacing();
      wavenumber_ = pulses.wavenumber();
      have_params_ = true;
    } else if (pulses.samples_per_pulse() != samples_ ||
               pulses.bin_spacing() != bin_spacing_ ||
               pulses.wavenumber() != wavenumber_) {
      return false;
    }
    for (Index p = 0; p < pulses.num_pulses(); ++p) {
      fill_meta_.push_back(pulses.meta(p));
      const auto src = pulses.pulse(p);
      fill_samples_.insert(fill_samples_.end(), src.begin(), src.end());
      if (static_cast<Index>(fill_meta_.size()) == config_.chunk_pulses) {
        auto chunk = std::make_shared<sim::PhaseHistory>(
            config_.chunk_pulses, samples_, bin_spacing_, wavenumber_);
        for (Index i = 0; i < config_.chunk_pulses; ++i) {
          const auto begin = fill_samples_.begin() + i * samples_;
          std::copy(begin, begin + samples_, chunk->pulse(i).begin());
          chunk->meta(i) = fill_meta_[static_cast<std::size_t>(i)];
        }
        fill_samples_.clear();
        fill_meta_.clear();
        pending_.push_back(
            Chunk{std::move(chunk), std::chrono::steady_clock::now()});
      }
    }
    pump_locked();
    return true;
  }

  void close() SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (closed_) return;
    closed_ = true;
    fill_samples_.clear();
    fill_meta_.clear();
    if (closed_counter_) closed_counter_->add();
  }

  void cancel() SARBP_EXCLUDES(mutex_) {
    std::shared_ptr<service::JobHandle> job;
    {
      MutexLock lock(mutex_);
      const auto dropped = static_cast<std::uint64_t>(pending_.size());
      pending_.clear();
      stats_.updates_cancelled += dropped;
      if (cancelled_ && dropped > 0) cancelled_->add(dropped);
      if (inflight_update_ != nullptr) job = inflight_update_->job;
      cv_.notify_all();
    }
    // Outside the session lock: cancel() takes the handle's mutex, and the
    // lock order everywhere else is session -> handle.
    if (job != nullptr) job->cancel();
  }

  bool wait_idle(std::chrono::milliseconds timeout) SARBP_EXCLUDES(mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    while (inflight_update_ != nullptr || !pending_.empty()) {
      // timeout: the caller's wait_idle budget.
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return inflight_update_ == nullptr && pending_.empty();
      }
    }
    return true;
  }

  bool wait_for_update(std::uint64_t seq, std::chrono::milliseconds timeout)
      SARBP_EXCLUDES(mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mutex_);
    while (seq_ < seq) {
      // timeout: the caller's wait_for_update budget.
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return seq_ >= seq;
      }
    }
    return true;
  }

  std::shared_ptr<const Snapshot> latest() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return latest_;
  }

  StreamStats stats() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

  sim::PhaseHistory window_history() const SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const Index total = window_pulses_locked();
    if (total == 0 || !have_params_) return {};
    sim::PhaseHistory out(total, samples_, bin_spacing_, wavenumber_);
    Index p = 0;
    for (const auto& chunk : chunks_) {
      for (Index i = 0; i < chunk->num_pulses(); ++i, ++p) {
        const auto src = chunk->pulse(i);
        std::copy(src.begin(), src.end(), out.pulse(p).begin());
        out.meta(p) = chunk->meta(i);
      }
    }
    return out;
  }

 private:
  /// One completed ingestion chunk, waiting to become an update.
  struct Chunk {
    std::shared_ptr<const sim::PhaseHistory> history;
    std::chrono::steady_clock::time_point ready;
  };

  /// State of one in-flight update, shared between the sweep tasks and
  /// the completion continuation.
  struct Update {
    Chunk chunk;
    bool anchor = false;
    bool cache_hit = false;
    service::PlanKey key;  ///< with a cache
    /// Anchor mode: the pulses of the window chunks that survive the
    /// slide, oldest first, then the new chunk's, as one sequence, so a
    /// loop-order run continues across chunk boundaries exactly as it does
    /// in reform_window over the concatenated window.
    std::vector<bp::PulseRange> window_pulses;
    /// The chunk's partial image: the cache's on a hit, else `swept`, which
    /// the block tasks write.
    SubApertureCache::Partial partial;
    std::shared_ptr<Grid2D<CFloat>> swept;
    Grid2D<CFloat> fresh;  ///< anchor: the whole window, re-swept
    /// The admitted job, for cancel(); session lock. Reset when the update
    /// resolves: the handle's request holds the factory, which holds this.
    std::shared_ptr<service::JobHandle> job;
    std::atomic<std::uint64_t> ops{0};
  };

  /// Submits pending chunks until one is in flight or the queue is empty.
  /// Holds mutex_ across submit(): the only callbacks that need this
  /// session's lock belong to the job being submitted, and they cannot be
  /// dispatched before submit() admits it.
  void pump_locked() SARBP_REQUIRES(mutex_) {
    while (inflight_update_ == nullptr && !pending_.empty()) {
      auto u = std::make_shared<Update>();
      u->chunk = std::move(pending_.front());
      pending_.pop_front();
      inflight_update_ = u;

      service::ImageFormationRequest req;
      req.grid = config_.grid;
      req.region = config_.region;
      req.asr_block_w = config_.asr_block_w;
      req.asr_block_h = config_.asr_block_h;
      req.priority = config_.priority;
      req.tenant = config_.tenant;
      // The chunk is the update's SFQ cost basis (region pixels x delta
      // pulses), exactly as a formation job over the chunk would be.
      req.pulses = u->chunk.history;
      if (config_.update_deadline.count() > 0) {
        req.deadline =
            std::chrono::steady_clock::now() + config_.update_deadline;
      }
      auto self = shared_from_this();
      req.custom = [self, u](const service::CustomJobContext& cctx) {
        return self->build_update_group(u, cctx);
      };
      req.custom_abandoned = [self, u](service::JobState state) {
        self->abandon_update(u, state);
      };
      const service::SubmitOutcome outcome = service_.submit(std::move(req));
      if (outcome.admitted()) {
        u->job = outcome.handle;
        return;
      }
      // Rejected: drop the chunk (stream backpressure) and try the next.
      inflight_update_ = nullptr;
      stats_.updates_rejected += 1;
      if (rejected_) rejected_->add();
      if (outcome.reject == service::RejectReason::kShuttingDown) {
        closed_ = true;
        stats_.updates_rejected += pending_.size();
        if (rejected_ && !pending_.empty()) rejected_->add(pending_.size());
        pending_.clear();
        if (closed_counter_) closed_counter_->add();
      }
      cv_.notify_all();
    }
  }

  void pump() SARBP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    pump_locked();
  }

  /// The custom-job factory: runs on the claiming worker at dequeue.
  exec::GroupPtr build_update_group(const std::shared_ptr<Update>& u,
                                    const service::CustomJobContext& cctx)
      SARBP_EXCLUDES(mutex_) {
    {
      // Decide the mode and snapshot the window. Only a committing update
      // mutates the chunks and exactly one update is in flight, so the
      // snapshot's chunks stay alive and valid for the group's whole run.
      MutexLock lock(mutex_);
      u->anchor = config_.reanchor_interval > 0 &&
                  window_.pushes_since_anchor() >= config_.reanchor_interval;
      if (u->anchor) {
        const auto survivors = std::min<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(chunks_.size()),
            static_cast<std::ptrdiff_t>(config_.window_chunks) - 1);
        for (auto it = chunks_.end() - survivors; it != chunks_.end(); ++it) {
          u->window_pulses.push_back(all_pulses(**it));
        }
        u->window_pulses.push_back(all_pulses(*u->chunk.history));
      }
    }
    if (config_.cache != nullptr) {
      u->key = config_.cache->make_key(config_.grid, region_,
                                       config_.asr_block_w,
                                       config_.asr_block_h, *u->chunk.history);
      u->partial = config_.cache->find(u->key, *u->chunk.history);
      u->cache_hit = u->partial != nullptr;
    }
    // Every update needs the chunk's partial for the eventual expiry
    // subtraction; a cache hit supplies it, anything else sweeps it. An
    // anchor additionally re-sweeps the whole window into a fresh image.
    if (!u->cache_hit) {
      u->swept =
          std::make_shared<Grid2D<CFloat>>(region_.width, region_.height);
      u->partial = u->swept;
    }
    if (u->anchor) u->fresh = Grid2D<CFloat>(region_.width, region_.height);

    auto self = shared_from_this();
    exec::FormationSpec spec;
    // A cache hit without an anchor has nothing to sweep: zero items.
    spec.items =
        !u->anchor && u->cache_hit ? 0 : static_cast<Index>(blocks_.size());
    spec.sweep = [self, u](Index b, const bp::AsrKernel& kernel) {
      return self->sweep_update_block(*u, b, kernel);
    };
    spec.workers = cctx.workers;
    spec.kernel = kernel_;
    spec.checkpoint = cctx.checkpoint;
    spec.on_complete = [self, u, cctx](exec::TaskGroup& group) {
      self->complete_update(u, cctx, group);
    };
    spec.label = "stream_update";
    return exec::make_formation_group(std::move(spec));
  }

  /// Sweeps block `b` of an update into the thread's block tile and adds
  /// it into its image at the block's place, as plan replay does: the
  /// window into `fresh` (anchor), the chunk into `swept` (no cache hit).
  double sweep_update_block(Update& u, Index b,
                            const bp::AsrKernel& kernel) {
    const asr::BlockSpec& block = blocks_[static_cast<std::size_t>(b)];
    const Region at{block.x0 - region_.x0, block.y0 - region_.y0, block.width,
                    block.height};
    const auto area = static_cast<std::uint64_t>(block.width) *
                      static_cast<std::uint64_t>(block.height);
    std::uint64_t ops = 0;
    const auto sweep = [&](std::span<const bp::PulseRange> pulses,
                           Grid2D<CFloat>& out) {
      bp::SoaTile& tile = bp::block_tile(block.width, block.height);
      bp::sweep_asr_block(block, block.x0, block.y0, config_.grid, pulses,
                          std::nullopt, kernel, tile);
      tile.accumulate_into(out, at);
      for (const bp::PulseRange& r : pulses) {
        ops += area * static_cast<std::uint64_t>(r.end - r.begin);
      }
    };
    if (u.anchor) sweep(u.window_pulses, u.fresh);
    if (u.swept != nullptr) {
      const bp::PulseRange chunk[] = {all_pulses(*u.chunk.history)};
      sweep(chunk, *u.swept);
    }
    // order: relaxed — statistics accumulator; the group's completion
    // machinery orders it before on_complete reads it.
    u.ops.fetch_add(ops, std::memory_order_relaxed);
    return static_cast<double>(ops);
  }

  /// Runs on the worker that retires the update's last task.
  void complete_update(const std::shared_ptr<Update>& u,
                       const service::CustomJobContext& cctx,
                       exec::TaskGroup& group) SARBP_EXCLUDES(mutex_) {
    const bool ok = !group.aborted();
    if (ok && config_.cache != nullptr && !u->cache_hit) {
      config_.cache->insert(u->key, u->chunk.history, u->partial);
    }
    // Resolve the handle first, with no locks held (lock order: session ->
    // handle). The service substitutes the checkpoint's verdict — the
    // return value is what the job actually resolved to. Classification
    // must land under the same critical section that clears
    // inflight_update_, or a wait_idle() waiter can observe the session
    // idle with the update not yet counted.
    const service::JobState final_state = cctx.finish(
        ok ? service::JobState::kDone : service::JobState::kFailed,
        ok ? std::string()
           : (group.error().empty() ? std::string("update aborted")
                                    : group.error()));
    {
      MutexLock lock(mutex_);
      // The handle owns the request whose factory owns `u`: drop the
      // back-reference so the update, its chunk and partials, and this
      // session are freed once the service lets go of the job.
      u->job.reset();
      // order: relaxed — every sweep task finished before the completion
      // continuation runs (group barrier); this is the only reader.
      const std::uint64_t ops = u->ops.load(std::memory_order_relaxed);
      stats_.backprojections += ops;
      if (ops_counter_ && ops > 0) ops_counter_->add(ops);
      if (ok) {
        // Commit: slide the chunks and the window, publish. This is the
        // only place image state mutates. The window holds each chunk's
        // partial independently of cache eviction, so an expiry subtracts
        // exactly what was added.
        chunks_.push_back(u->chunk.history);
        while (chunks_.size() >
               static_cast<std::size_t>(config_.window_chunks)) {
          chunks_.pop_front();
        }
        // lint: allow(queue-result) -- SlidingWindow::push returns nothing
        window_.push(u->partial, std::move(u->fresh));  // empty unless anchor
        if (u->anchor) {
          stats_.reanchors += 1;
          if (reanchors_) reanchors_->add();
        }
        if (u->cache_hit) stats_.cache_hits += 1;
        seq_ += 1;
        auto snap = std::make_shared<Snapshot>();
        snap->seq = seq_;
        snap->reanchored = u->anchor;
        snap->window_pulses = window_pulses_locked();
        snap->image = window_.image();
        snap->latency_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          u->chunk.ready)
                .count();
        latest_ = std::move(snap);
        stats_.updates_completed += 1;
        if (completed_) completed_->add();
        if (latency_s_) latency_s_->record(latest_->latency_seconds);
      } else {
        count_unapplied_locked(final_state);
      }
      inflight_update_ = nullptr;
      cv_.notify_all();
    }
    pump();
  }

  /// The job resolved terminally without the factory running (cancelled
  /// while queued, expired at dequeue, dropped at drain).
  void abandon_update(const std::shared_ptr<Update>& u,
                      service::JobState state) SARBP_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      u->job.reset();  // breaks the update <-> handle cycle, as above
      if (inflight_update_ != u) return;
      inflight_update_ = nullptr;
      count_unapplied_locked(state);
      cv_.notify_all();
    }
    pump();
  }

  /// Pulses in the applied window.
  Index window_pulses_locked() const SARBP_REQUIRES(mutex_) {
    Index total = 0;
    for (const auto& chunk : chunks_) total += chunk->num_pulses();
    return total;
  }

  /// Counts an update that resolved without committing, by its final
  /// state: cancelled, expired, or failed.
  void count_unapplied_locked(service::JobState state) SARBP_REQUIRES(mutex_) {
    switch (state) {
      case service::JobState::kCancelled:
        stats_.updates_cancelled += 1;
        if (cancelled_) cancelled_->add();
        break;
      case service::JobState::kExpired:
        stats_.updates_expired += 1;
        if (expired_counter_) expired_counter_->add();
        break;
      default:
        stats_.updates_failed += 1;
        if (failed_) failed_->add();
        break;
    }
  }

  service::ImageFormationService& service_;
  const StreamConfig config_;
  const Region region_;
  const std::vector<asr::BlockSpec> blocks_;
  const bp::AsrKernel kernel_;

  mutable Mutex mutex_{SARBP_LOCK_LEVEL("streaming.session")};
  CondVar cv_;

  // Sampling geometry, fixed by the first push.
  bool have_params_ SARBP_GUARDED_BY(mutex_) = false;
  Index samples_ SARBP_GUARDED_BY(mutex_) = 0;
  double bin_spacing_ SARBP_GUARDED_BY(mutex_) = 1.0;
  double wavenumber_ SARBP_GUARDED_BY(mutex_) = 0.0;

  std::vector<CFloat> fill_samples_ SARBP_GUARDED_BY(mutex_);
  std::vector<sim::PulseMeta> fill_meta_ SARBP_GUARDED_BY(mutex_);

  std::deque<Chunk> pending_ SARBP_GUARDED_BY(mutex_);
  std::shared_ptr<Update> inflight_update_ SARBP_GUARDED_BY(mutex_);
  /// The applied chunks, oldest first, beside their partials' window.
  std::deque<std::shared_ptr<const sim::PhaseHistory>> chunks_
      SARBP_GUARDED_BY(mutex_);
  bp::SlidingWindow window_ SARBP_GUARDED_BY(mutex_);
  std::uint64_t seq_ SARBP_GUARDED_BY(mutex_) = 0;
  std::shared_ptr<const Snapshot> latest_ SARBP_GUARDED_BY(mutex_);
  StreamStats stats_ SARBP_GUARDED_BY(mutex_);
  bool closed_ SARBP_GUARDED_BY(mutex_) = false;

  obs::Counter* opened_ = nullptr;
  obs::Counter* closed_counter_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* expired_counter_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* reanchors_ = nullptr;
  obs::Counter* ops_counter_ = nullptr;
  obs::Histogram* latency_s_ = nullptr;
};

bool StreamSession::push(const sim::PhaseHistory& pulses) {
  ensure(impl_ != nullptr, "StreamSession: not open");
  return impl_->push(pulses);
}

void StreamSession::close() {
  ensure(impl_ != nullptr, "StreamSession: not open");
  impl_->close();
}

void StreamSession::cancel() {
  ensure(impl_ != nullptr, "StreamSession: not open");
  impl_->cancel();
}

bool StreamSession::wait_idle(std::chrono::milliseconds timeout) {
  ensure(impl_ != nullptr, "StreamSession: not open");
  return impl_->wait_idle(timeout);
}

bool StreamSession::wait_for_update(std::uint64_t seq,
                                    std::chrono::milliseconds timeout) {
  ensure(impl_ != nullptr, "StreamSession: not open");
  return impl_->wait_for_update(seq, timeout);
}

std::shared_ptr<const Snapshot> StreamSession::latest() const {
  ensure(impl_ != nullptr, "StreamSession: not open");
  return impl_->latest();
}

StreamStats StreamSession::stats() const {
  ensure(impl_ != nullptr, "StreamSession: not open");
  return impl_->stats();
}

sim::PhaseHistory StreamSession::window_history() const {
  ensure(impl_ != nullptr, "StreamSession: not open");
  return impl_->window_history();
}

StreamSession open_stream(service::ImageFormationService& service,
                          StreamConfig config) {
  const Region region = effective_region(config);
  ensure(config.grid.width() > 0 && config.grid.height() > 0,
         "open_stream: empty grid");
  ensure(region.inside(config.grid.width(), config.grid.height()),
         "open_stream: region outside grid");
  ensure(config.asr_block_w > 0 && config.asr_block_h > 0,
         "open_stream: ASR block must be positive");
  ensure(config.chunk_pulses > 0, "open_stream: chunk_pulses must be positive");
  ensure(config.window_chunks > 0,
         "open_stream: window_chunks must be positive");
  ensure(config.reanchor_interval >= 0,
         "open_stream: reanchor_interval must be >= 0");
  ensure(!service.sharded(),
         "open_stream: streaming requires a local-mode service");
  return StreamSession(
      std::make_shared<StreamSession::Impl>(service, std::move(config)));
}

Grid2D<CFloat> reform_window(const StreamConfig& config,
                             const sim::PhaseHistory& window) {
  const Region region = effective_region(config);
  ensure(!region.empty() && config.asr_block_w > 0 && config.asr_block_h > 0,
         "reform_window: bad geometry");
  bp::SoaTile tile(region.width, region.height);
  bp::backproject_asr_simd(window, config.grid, region, 0,
                           window.num_pulses(), config.asr_block_w,
                           config.asr_block_h, std::nullopt, tile,
                           config.use_simd ? bp::SimdIsa::kAuto
                                           : bp::SimdIsa::kScalar);
  Grid2D<CFloat> image(region.width, region.height);
  tile.accumulate_into(image, Region{0, 0, region.width, region.height});
  return image;
}

}  // namespace sarbp::streaming
