// The persistent-surveillance pipeline (paper Fig. 2 / Fig. 4):
//
//   pulses -> backprojection (+ incremental accumulation) -> registration
//          -> CCD -> CFAR -> detections,
//
// run as a software pipeline: stages execute on their own threads and are
// joined by bounded concurrent queues (§4.1), so pulse ingest for image
// t+1 overlaps with image formation for image t and post-processing for
// image t-1. The first completed image becomes the reference; every later
// frame is registered against it before change detection. Backprojection
// and registration share one pool, the Backprojector's; CCD and CFAR run
// on the post-processing thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/grid2d.h"
#include "common/queue.h"
#include "common/timer.h"
#include "exec/formation_tasks.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "pipeline/cfar.h"
#include "pipeline/ccd.h"
#include "pipeline/registration.h"
#include "sim/phase_history.h"

namespace sarbp::pipeline {

struct PipelineConfig {
  bp::BackprojectOptions backprojection;
  /// Accumulation factor k (paper §2): images combine the latest batch
  /// with up to k earlier batch results.
  int accumulation_factor = 2;
  RegistrationParams registration;
  CcdParams ccd;
  CfarParams cfar;
  /// Bounded-queue depth between stages (2 = classic double buffering).
  std::size_t queue_depth = 2;
  /// Metrics sink: stage spans ("pipeline.stage.*"), per-frame latency
  /// ("pipeline.frame.latency_s"), completion-time histogram
  /// ("pipeline.frame.completed_at_s") and queue gauges are recorded here.
  /// Null selects the process-global obs::registry().
  obs::Registry* metrics = nullptr;
};

struct FrameResult {
  Index frame = 0;
  bool is_reference = false;        ///< first frame: defines the reference
  Grid2D<CFloat> image;             ///< registered (aligned) image
  AffineTransform alignment;        ///< fitted current->reference transform
  Grid2D<float> correlation;        ///< CCD map (empty on reference frame)
  CfarResult cfar;                  ///< detections (empty on reference frame)
  std::map<std::string, double> stage_seconds;
};

class SurveillancePipeline {
 public:
  SurveillancePipeline(const geometry::ImageGrid& grid, PipelineConfig config);
  ~SurveillancePipeline();

  SurveillancePipeline(const SurveillancePipeline&) = delete;
  SurveillancePipeline& operator=(const SurveillancePipeline&) = delete;

  /// Feeds one pulse batch (one "second" of new pulses). Blocks on
  /// backpressure. Returns false after close_input().
  bool push_pulses(sim::PhaseHistory batch);

  /// Retrieves the next completed frame; blocks; nullopt after the input
  /// was closed and everything in flight has drained.
  std::optional<FrameResult> pop_result();

  /// Signals end of the pulse stream.
  void close_input();

  /// Wall-clock totals per stage, accumulated across all frames of this
  /// pipeline. Kept here, not read back from the "pipeline.stage.*"
  /// histograms, so they hold under -DSARBP_OBS=OFF too. Safe to read
  /// after the pipeline has drained.
  [[nodiscard]] SectionTimes cumulative_stage_times() const;

  /// The registry this pipeline records into.
  [[nodiscard]] obs::Registry& metrics() const { return *metrics_; }

 private:
  struct FormedImage {
    Index frame;
    Grid2D<CFloat> image;
    std::map<std::string, double> stage_seconds;
    /// When the backprojection stage dequeued the pulse batch — the start
    /// of the frame's in-pipeline latency measurement.
    std::chrono::steady_clock::time_point ingested;
  };

  void backprojection_stage();
  void post_processing_stage();
  void record_stage(const char* name, double seconds);

  /// Stages of kStageNames (pipeline.cpp), whose totals stage_sums_ keeps;
  /// each stage's total is added to by its stage thread only.
  static constexpr std::size_t kStages = 5;
  std::array<std::atomic<double>, kStages> stage_sums_{};

  geometry::ImageGrid grid_;
  PipelineConfig config_;
  obs::Registry* metrics_;
  exec::Backprojector backprojector_;
  Registrar registrar_;

  BoundedQueue<sim::PhaseHistory> pulse_queue_;
  BoundedQueue<FormedImage> image_queue_;
  BoundedQueue<FrameResult> result_queue_;

  std::chrono::steady_clock::time_point started_;

  std::thread bp_thread_;
  std::thread post_thread_;
};

}  // namespace sarbp::pipeline
