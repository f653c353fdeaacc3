// revisit, survey and survey_sharded: one client thread driving
// ImageFormationService closed-loop, `in_flight` jobs at a time, round-robin
// over the workload's scenes.
#include <deque>
#include <stdexcept>
#include <utility>

#include "perfbench.h"
#include "service/service.h"

namespace perfbench {
namespace {

using namespace sarbp;

/// A service and the registry it records into, destroyed service first.
struct ServiceRig {
  obs::Registry registry;
  std::unique_ptr<service::ImageFormationService> service;
};

service::ServiceConfig make_config(const ServiceWorkload& w,
                                   obs::Registry* registry) {
  service::ServiceConfig config;
  config.metrics = registry;
  config.plan_cache_capacity = w.plan_cache;
  if (w.sharded) {
    // Ranks replay plans with their own scalar sweep; backends are ignored.
    config.shards = kServiceThreads;
    config.shard_workers = 1;
  } else {
    // The default scalar path runs about a third as fast; the backend is
    // part of the workload's definition.
    config.workers = kServiceThreads;
    exec::BackendSpec simd;
    simd.kind = exec::BackendSpec::Kind::kHostSimd;
    config.backends = {simd};
  }
  return config;
}

service::ImageFormationRequest make_request(const Scene& scene,
                                            std::size_t index) {
  service::ImageFormationRequest request;
  request.grid = scene.grid;
  request.pulses = scene.history;
  request.asr_block_w = kAsrBlock;
  request.asr_block_h = kAsrBlock;
  // Two equal-weight tenants at normal priority, alternating.
  request.tenant = index % 2 == 0 ? "tenant-a" : "tenant-b";
  return request;
}

struct InFlight {
  std::shared_ptr<service::JobHandle> handle;
  Clock::time_point submitted;
  std::size_t index = 0;
  std::size_t scene = 0;
};

}  // namespace

Pass run_service_pass(const ServiceWorkload& w,
                      const std::vector<Scene>& scenes, std::size_t requests,
                      SpanLog* spans) {
  Pass pass;

  // Set-up: construction plus the warm-up that brings the caches to their
  // steady state (every plan cached on revisit, a full cache on survey).
  std::unique_ptr<ServiceRig> rig;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ServiceRig>();
    rig->service = std::make_unique<service::ImageFormationService>(
        make_config(w, &rig->registry));
    for (std::size_t i = 0; i < w.warm; ++i) {
      const service::SubmitOutcome out =
          rig->service->submit(make_request(scenes[i % scenes.size()], i));
      if (!out.admitted() ||
          out.handle->wait().state != service::JobState::kDone) {
        throw std::runtime_error(std::string(w.name) +
                                 ": a warm-up request did not complete");
      }
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  pass.setup_s = median(setups);
  service::ImageFormationService& srv = *rig->service;

  std::deque<InFlight> inflight;
  std::vector<std::size_t> delivered_scene;
  std::vector<std::uint64_t> delivered_hash;
  std::vector<double> queue_s, setup_s, compute_s, publish_s, client_s;
  std::size_t next = 0;
  std::size_t rejected = 0;
  std::size_t unfinished = 0;
  const auto submit_one = [&] {
    const std::size_t index = next++;
    const std::size_t scene = (w.warm + index) % scenes.size();
    const auto submitted = Clock::now();
    service::SubmitOutcome out = srv.submit(make_request(scenes[scene], index));
    if (!out.admitted()) {
      ++rejected;
      return;
    }
    inflight.push_back({std::move(out.handle), submitted, index, scene});
  };

  const obs::MetricsSnapshot before = rig->registry.snapshot();
  const auto t0 = Clock::now();
  auto t_end = t0;
  while (next < requests && inflight.size() < w.in_flight) submit_one();
  while (!inflight.empty()) {
    const InFlight job = std::move(inflight.front());
    inflight.pop_front();
    const service::JobResult& result = job.handle->wait();
    const auto in_hand = Clock::now();
    const bool done = result.state == service::JobState::kDone;
    pass.step_s.push_back(seconds_between(t_end, in_hand));
    pass.step_images.push_back(done ? 1.0 : 0.0);
    t_end = in_hand;
    // Refill first: the bookkeeping below then overlaps service work.
    while (next < requests && inflight.size() < w.in_flight) submit_one();
    if (!done) {
      ++unfinished;
      continue;
    }
    const double latency = seconds_between(job.submitted, in_hand);
    const double publish =
        std::max(0.0, result.latency_seconds - result.queue_seconds -
                          result.setup_seconds - result.compute_seconds);
    const double client = std::max(0.0, latency - result.latency_seconds);
    pass.latencies.push_back(latency);
    queue_s.push_back(result.queue_seconds);
    setup_s.push_back(result.setup_seconds);
    compute_s.push_back(result.compute_seconds);
    publish_s.push_back(publish);
    client_s.push_back(client);
    delivered_scene.push_back(job.scene);
    delivered_hash.push_back(hash_image(result.image));
    if (spans != nullptr) {
      // The request span, and under it the service's own stamps laid end
      // to end from admission; the root's remainder is client-side time.
      const std::uint64_t request = job.index + 1;
      const std::uint64_t root =
          spans->add("request", request, 0, job.submitted, latency);
      auto at = job.submitted;
      const std::pair<const char*, double> parts[] = {
          {"service.queue", result.queue_seconds},
          {"plan_cache.setup", result.setup_seconds},
          {"exec.compute", result.compute_seconds},
          {"service.publish", publish}};
      for (const auto& [name, seconds] : parts) {
        spans->add(name, request, root, at, seconds);
        at += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
      }
    }
  }
  pass.wall_s = seconds_between(t0, t_end);
  pass.peak_rss_mb = peak_rss_mb();
  const obs::MetricsSnapshot after = rig->registry.snapshot();
  const double plan_cache_bytes = static_cast<double>(srv.plan_cache().bytes());
  rig.reset();  // drain; everything below is off the clock

  pass.attempted = requests;
  pass.failed = rejected + unfinished;

  // Image check: every delivery must be byte-identical to its scene's
  // expected image (repeat deliveries of one input; the grid-split gather).
  const std::vector<SceneCheck> checks =
      check_scenes(scenes, !w.sharded, pass.errors);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < delivered_hash.size(); ++i) {
    const SceneCheck& check = checks[delivered_scene[i]];
    if (!check.ok || delivered_hash[i] != check.hash) ++mismatched;
  }
  if (mismatched > 0) {
    pass.errors.push_back(std::to_string(mismatched) +
                          " deliveries differ from their scene's expected "
                          "image");
  }
  pass.failed += mismatched;
  pass.passed = delivered_hash.size() - mismatched;
  pass.min_snr_db = checks.empty() ? 0.0 : checks.front().snr_db;
  for (const SceneCheck& check : checks) {
    pass.min_snr_db = std::min(pass.min_snr_db, check.snr_db);
  }
  pass.snr_checked = checks.size();

  const double jobs = std::max(1.0, static_cast<double>(requests - rejected));
  const double hits = counter_delta(before, after, "service.plan_cache.hits");
  const double misses =
      counter_delta(before, after, "service.plan_cache.misses");
  auto& layers = pass.layers;
  layers["service.queue_p50_s"] = median(queue_s);
  layers["service.publish_p50_s"] = median(publish_s);
  layers["service.rejected"] = static_cast<double>(rejected);
  layers["plan_cache.hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers["plan_cache.setup_p50_s"] = median(setup_s);
  layers["plan_cache.mb"] = plan_cache_bytes / (1024.0 * 1024.0);
  layers["exec.compute_p50_s"] = median(compute_s);
  layers["exec.tasks_per_job"] =
      counter_delta(before, after, "exec.tasks.run") / jobs;
  layers["exec.steals_per_job"] =
      counter_delta(before, after, "exec.tasks.stolen") / jobs;
  layers["exec.steal_fails_per_job"] =
      counter_delta(before, after, "exec.steal.fail") / jobs;
  layers["shard.gather_p50_s"] = histogram_p50(after, "shard.job.gather_s");
  layers["shard.parts_per_job"] =
      counter_delta(before, after, "shard.parts.dispatched") / jobs;
  layers["client.self_p50_s"] = median(client_s);
  return pass;
}

}  // namespace perfbench
