// Streaming sliding-aperture imaging (DESIGN.md §13): pulses arrive
// forever, the image tracks the last W sub-aperture chunks, and each
// update costs O(delta-pulses) instead of a full reform.
//
// A StreamSession ingests pulses in fixed chunks of `chunk_pulses`. Each
// completed chunk becomes one *update* — a custom job submitted through
// the ImageFormationService, so updates ride the full serving stack: fair
// queueing and admission control, priority classes, per-update deadlines,
// cooperative cancellation, and the work-stealing tile executor (claimed
// through its pull-model source hook). Exactly one update per session is
// in flight; completed updates publish an immutable Snapshot.
//
// Update modes (backprojection is linear, paper §2); the chunk partials
// and their running image are one bp::SlidingWindow:
//  - incremental: sweep only the new chunk into a partial image (or fetch
//    it from the SubApertureCache) and push it: image += partial, then
//    image -= the expired chunk's retained partial. O(delta).
//  - re-anchor: after `reanchor_interval` consecutive incremental updates
//    the whole window is re-swept from scratch, block-outer/pulse-inner —
//    the same arithmetic in the same order as a one-shot reform — and the
//    window's anchoring push takes it as the running image, so the
//    published image is *bit-identical* to reform_window() over the
//    session's window_history(). O(window).
//
// Drift contract: float accumulation is not associative, so an
// incremental image is not a from-scratch reform bit-for-bit: it is the
// serial fold (+= newest, -= expired) of the chunks' own reforms since the
// last anchor, within a bounded error of the reform (> 70 dB SNR in the
// repo's tests; see EXPERIMENTS.md). A failed/cancelled/expired update
// mutates nothing: all image state changes happen in the update's commit.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "asr/block_plan.h"
#include "common/grid2d.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "service/service.h"
#include "sim/phase_history.h"
#include "streaming/subaperture_cache.h"

namespace sarbp::streaming {

struct StreamConfig {
  geometry::ImageGrid grid{0, 0, 1.0};
  /// Sub-rectangle of the grid to maintain; empty = the full grid.
  Region region;
  Index asr_block_w = asr::kDefaultBlock;
  Index asr_block_h = asr::kDefaultBlock;
  /// Sub-aperture chunk size: pulses are ingested in fixed chunks of this
  /// many pulses, and one completed chunk is one update. A trailing
  /// partial chunk is held until it fills (and discarded at close()).
  Index chunk_pulses = 16;
  /// Sliding aperture = the last `window_chunks` applied chunks.
  Index window_chunks = 4;
  /// Re-anchor cadence: after this many consecutive incremental updates
  /// the next update re-sweeps the whole window from scratch. 0 = never.
  int reanchor_interval = 16;
  /// Per-update completion deadline, measured from update admission
  /// (queue wait included). Zero = none. A missed deadline drops that
  /// chunk — the image never shows a half-applied update.
  std::chrono::milliseconds update_deadline{0};
  service::Priority priority = service::Priority::kNormal;
  std::string tenant;
  /// Sweeps with the vector ASR kernel (widest usable ISA,
  /// KernelVariant::kAuto window loads); the scalar sweep when no vector
  /// ISA is usable. Either gives the same bytes, so this changes only
  /// speed.
  bool use_simd = false;
  /// Optional shared sub-aperture partial cache (may be shared across
  /// sessions on the same scene); null = no partial reuse. Must outlive
  /// the session.
  SubApertureCache* cache = nullptr;
};

/// One published update result. Immutable once published; `latest()`
/// hands out shared ownership so readers never block the updater.
struct Snapshot {
  std::uint64_t seq = 0;    ///< 1-based update sequence number
  bool reanchored = false;  ///< this update was a full window re-sweep
  Index window_pulses = 0;  ///< pulses in the applied window
  Grid2D<CFloat> image{0, 0};
  double latency_seconds = 0.0;  ///< chunk completed -> snapshot published
};

struct StreamStats {
  std::uint64_t updates_completed = 0;
  std::uint64_t updates_failed = 0;
  std::uint64_t updates_cancelled = 0;
  std::uint64_t updates_expired = 0;
  /// Admission rejections; the chunk is dropped (stream backpressure).
  std::uint64_t updates_rejected = 0;
  std::uint64_t reanchors = 0;
  /// (pixel, pulse) sweep operations performed — the O(delta) vs O(full)
  /// observable the acceptance test asserts on.
  std::uint64_t backprojections = 0;
  /// Chunk partials this session took from the sub-aperture cache.
  std::uint64_t cache_hits = 0;
};

/// Handle to one sliding-aperture session. Copyable (shared); thread-safe.
/// The service must outlive every session opened against it (sessions are
/// drained with it: in-flight updates resolve, queued chunks reject).
class StreamSession {
 public:
  StreamSession() = default;

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

  /// Ingests a batch of pulses (any size; chunking is internal). The batch
  /// must match the session's sampling geometry (samples per pulse, bin
  /// spacing, wavenumber — fixed by the first push). Returns false, and
  /// buffers none of its pulses, when the session is closed or the batch
  /// is inconsistent, empty or holds a NaN or infinite sample.
  bool push(const sim::PhaseHistory& pulses);

  /// Stops ingestion; queued and in-flight updates still run to
  /// completion (drain semantics). Idempotent.
  void close();

  /// Cancels the in-flight update (cooperatively, at its next inter-block
  /// checkpoint) and drops every queued chunk.
  void cancel();

  /// Blocks until no update is queued or in flight. False on timeout.
  bool wait_idle(std::chrono::milliseconds timeout);

  /// Blocks until an update with sequence >= `seq` has been published.
  bool wait_for_update(std::uint64_t seq, std::chrono::milliseconds timeout);

  /// Latest published snapshot; null before the first completed update.
  [[nodiscard]] std::shared_ptr<const Snapshot> latest() const;

  [[nodiscard]] StreamStats stats() const;

  /// The applied window as one concatenated phase history, oldest chunk
  /// first — the from-scratch reference input of the parity contract (see
  /// reform_window). Empty history before the first completed update.
  [[nodiscard]] sim::PhaseHistory window_history() const;

  class Impl;

 private:
  explicit StreamSession(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}

  friend StreamSession open_stream(service::ImageFormationService& service,
                                   StreamConfig config);

  std::shared_ptr<Impl> impl_;
};

/// Opens a session against `service` (local mode only — custom jobs do not
/// shard). Throws PreconditionError on invalid config. Obs metrics (under
/// the service's registry): streaming.sessions.{opened,closed} counters,
/// streaming.updates.{completed,failed,cancelled,expired,rejected},
/// streaming.reanchors, streaming.backprojections counters, and the
/// streaming.update.latency_s histogram.
[[nodiscard]] StreamSession open_stream(service::ImageFormationService& service,
                                        StreamConfig config);

/// Reference semantics of the streaming contract: a serial block-outer /
/// pulse-inner reform of `window` under `config`'s geometry and kernel
/// selection (bp::backproject_asr_simd) — the same arithmetic order a
/// re-anchor performs. Immediately
/// after a re-anchor, latest()->image equals this bit-for-bit over
/// window_history(); between re-anchors it matches within the documented
/// drift bound (DESIGN.md §13).
[[nodiscard]] Grid2D<CFloat> reform_window(const StreamConfig& config,
                                           const sim::PhaseHistory& window);

}  // namespace sarbp::streaming
