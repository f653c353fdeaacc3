#include "pipeline/pipeline.h"

#include <cstring>
#include <iterator>
#include <memory>
#include <utility>

#include "backprojection/sliding_window.h"
#include "common/check.h"

namespace sarbp::pipeline {
namespace {

constexpr const char* kStageNames[] = {"backprojection", "accumulate",
                                       "registration", "ccd", "cfar"};

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

SurveillancePipeline::SurveillancePipeline(const geometry::ImageGrid& grid,
                                           PipelineConfig config)
    : grid_(grid),
      config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::registry()),
      backprojector_(grid_, config_.backprojection),
      registrar_(config_.registration),
      pulse_queue_(config_.queue_depth, "pipeline.pulse", metrics_),
      image_queue_(config_.queue_depth, "pipeline.image", metrics_),
      result_queue_(config_.queue_depth + 2, "pipeline.result", metrics_),
      started_(std::chrono::steady_clock::now()) {
  ensure(config_.accumulation_factor >= 0,
         "SurveillancePipeline: negative accumulation factor");
  bp_thread_ = std::thread([this] { backprojection_stage(); });
  post_thread_ = std::thread([this] { post_processing_stage(); });
}

// Shutdown protocol (DESIGN.md): close queues strictly downstream-first
// from the consumer's point of view — closing result_queue_ releases the
// post stage even when the caller never collected its results; the post
// stage then closes image_queue_ on its way out, releasing a
// backprojection stage blocked mid-push; close_input() has already
// released a producer blocked on pulse_queue_. Only then are the stage
// threads joined.
SurveillancePipeline::~SurveillancePipeline() {
  close_input();
  // Drain anything the consumer never collected so the stages can exit.
  result_queue_.close();
  if (bp_thread_.joinable()) bp_thread_.join();
  if (post_thread_.joinable()) post_thread_.join();
}

bool SurveillancePipeline::push_pulses(sim::PhaseHistory batch) {
  return pulse_queue_.push(std::move(batch));
}

std::optional<FrameResult> SurveillancePipeline::pop_result() {
  return result_queue_.pop();
}

void SurveillancePipeline::close_input() { pulse_queue_.close(); }

SectionTimes SurveillancePipeline::cumulative_stage_times() const {
  static_assert(std::size(kStageNames) == kStages);
  SectionTimes totals;
  for (std::size_t i = 0; i < kStages; ++i) {
    // order: relaxed — a read after the drain is ordered after every add
    // by the queues' locks; a read before it may see any partial sum.
    const double secs = stage_sums_[i].load(std::memory_order_relaxed);
    if (secs > 0.0) totals.add(kStageNames[i], secs);
  }
  return totals;
}

void SurveillancePipeline::record_stage(const char* name, double seconds) {
  for (std::size_t i = 0; i < kStages; ++i) {
    if (std::strcmp(kStageNames[i], name) == 0) {
      // order: relaxed — a sum with one writer, its stage's thread; no
      // other state is published through it.
      stage_sums_[i].fetch_add(seconds, std::memory_order_relaxed);
    }
  }
  metrics_->histogram(std::string("pipeline.stage.") + name).record(seconds);
}

void SurveillancePipeline::backprojection_stage() {
  bp::SlidingWindow window(grid_.width(), grid_.height(),
                          config_.accumulation_factor + 1);
  Index frame = 0;
  while (auto batch = pulse_queue_.pop()) {
    FormedImage formed;
    formed.frame = frame++;
    formed.ingested = std::chrono::steady_clock::now();
    Timer bp_timer;
    Grid2D<CFloat> batch_image = backprojector_.form_image(*batch);
    formed.stage_seconds["backprojection"] = bp_timer.seconds();
    Timer acc_timer;
    window.push(std::make_shared<Grid2D<CFloat>>(std::move(batch_image)));
    formed.image = window.resum();
    formed.stage_seconds["accumulate"] = acc_timer.seconds();

    for (const auto& [name, secs] : formed.stage_seconds) {
      record_stage(name.c_str(), secs);
    }
    if (!image_queue_.push(std::move(formed))) break;
  }
  image_queue_.close();
}

void SurveillancePipeline::post_processing_stage() {
  obs::Histogram& latency = metrics_->histogram("pipeline.frame.latency_s");
  obs::Histogram& completed_at =
      metrics_->histogram("pipeline.frame.completed_at_s");
  obs::Counter& frames_done = metrics_->counter("pipeline.frames");
  std::optional<Grid2D<CFloat>> reference;
  while (auto formed = image_queue_.pop()) {
    FrameResult result;
    result.frame = formed->frame;
    result.stage_seconds = std::move(formed->stage_seconds);

    if (!reference.has_value()) {
      reference = formed->image;
      result.is_reference = true;
      result.image = std::move(formed->image);
    } else {
      Timer reg_timer;
      result.image = registrar_.register_image(
          formed->image, *reference, backprojector_.pool(), &result.alignment);
      result.stage_seconds["registration"] = reg_timer.seconds();

      Timer ccd_timer;
      result.correlation = ccd(result.image, *reference, config_.ccd);
      result.stage_seconds["ccd"] = ccd_timer.seconds();

      Timer cfar_timer;
      result.cfar = cfar_detect(result.correlation, config_.cfar);
      result.stage_seconds["cfar"] = cfar_timer.seconds();
    }

    for (const auto& name : {"registration", "ccd", "cfar"}) {
      const auto it = result.stage_seconds.find(name);
      if (it != result.stage_seconds.end()) record_stage(name, it->second);
    }
    latency.record(elapsed_s(formed->ingested));
    completed_at.record(elapsed_s(started_));
    frames_done.add();
    if (!result_queue_.push(std::move(result))) {
      // The consumer stopped collecting (result_queue_ closed, e.g. by the
      // destructor). Close our input too: a backprojection stage blocked
      // pushing into a full image_queue_ must wake and exit, or the
      // destructor's join would deadlock.
      image_queue_.close();
      break;
    }
  }
  result_queue_.close();
}

}  // namespace sarbp::pipeline
