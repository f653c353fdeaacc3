// Distributed imaging: form one image across a simulated multi-node
// cluster (the in-process MPI substitute) through the sharded formation
// service. The service cuts the image into ASR block-row bands, splitting
// image dimensions first (paper §4.2); each rank sweeps its band and the
// front end gathers the tiles. The sharded image must be the local
// service's bytes. The example also prints the parts per job and the
// per-node volumes the 3D-torus interconnect model puts on the rank level.
//
// Build & run:  ./build/examples/distributed_imaging [--ranks 4]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cluster/torus_model.h"
#include "common/rng.h"
#include "geometry/trajectory.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "sim/collector.h"
#include "sim/scene.h"

namespace {

using namespace sarbp;

/// Forms `request` on a service of `shards` ranks (1 = the local
/// executor), one worker each, counting into `metrics` (null: the global
/// registry).
service::JobResult form(const service::ImageFormationRequest& request,
                        int shards, obs::Registry* metrics) {
  service::ServiceConfig config;
  config.workers = 1;
  config.shards = shards;
  config.shard_workers = 1;  // one worker per rank: ranks are the parallelism
  config.metrics = metrics;
  service::ImageFormationService srv(config);
  auto outcome = srv.submit(request);
  if (!outcome.admitted()) {
    service::JobResult rejected;  // kFailed
    rejected.error = std::string("rejected: ") +
                     service::reject_reason_name(outcome.reject);
    return rejected;
  }
  return outcome.handle->wait();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kMaxRanks = 16;
  int ranks = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks") == 0) ranks = std::atoi(argv[i + 1]);
  }
  if (ranks < 1 || ranks > kMaxRanks) {
    std::fprintf(stderr, "--ranks must be in [1, %d]\n", kMaxRanks);
    return 2;
  }

  const Index image = 128;
  const Index pulses = 64;
  const geometry::ImageGrid grid(image, image, 0.5);

  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.066;
  Rng rng(17);
  const auto poses = geometry::circular_orbit(orbit, {}, pulses, rng);

  sim::ClusterSceneParams scene_params;
  const auto scene = sim::make_cluster_scene(grid, scene_params, rng);
  sim::CollectorParams collector;
  const auto history = std::make_shared<const sim::PhaseHistory>(
      sim::collect(collector, grid, scene, poses, rng));

  // At image / ranks rows per block the image has at least `ranks` block
  // rows, so every rank gets a band.
  service::ImageFormationRequest request;
  request.grid = grid;
  request.pulses = history;
  request.asr_block_w = request.asr_block_h = image / ranks;

  std::printf("forming a %lldx%lld image from %lld pulses on %d simulated "
              "ranks (ASR block %lld)...\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses), ranks,
              static_cast<long long>(request.asr_block_w));

  obs::Registry sharded_metrics;
  const service::JobResult sharded = form(request, ranks, &sharded_metrics);
  const service::JobResult local = form(request, 1, nullptr);
  if (sharded.state != service::JobState::kDone ||
      local.state != service::JobState::kDone) {
    std::fprintf(stderr, "formation failed: %s%s\n", sharded.error.c_str(),
                 local.error.c_str());
    return 1;
  }
  const bool identical = sharded.image == local.image;
  std::printf("sharded vs local service image: %s\n",
              identical ? "byte-identical" : "DIFFERENT");

  if (obs::kEnabled && ranks > 1) {
    std::printf("parts per job   : %llu\n",
                static_cast<unsigned long long>(
                    sharded_metrics.counter("shard.parts.dispatched").value()));
  }
  std::printf("critical path   : %.3f ms (slowest band)\n",
              1e3 * sharded.compute_seconds);

  // What the interconnect model says this costs at scale.
  const cluster::InterconnectModel net;
  const auto volumes = cluster::communication_volumes(
      ranks, image, pulses, history->samples_per_pulse(), 31, 25, 25);
  std::printf("\n3D-torus model (2 GB/s channels), %d nodes:\n", ranks);
  std::printf("  per-node pulse scatter : %.3f ms\n",
              1e3 * net.mpi_seconds(volumes.pulse_scatter_bytes));
  std::printf("  per-node boundary exch : %.3f ms\n",
              1e3 * net.mpi_seconds(volumes.boundary_bytes));
  std::printf("  average hop count      : %.2f\n",
              net.average_hops(ranks));
  return identical ? 0 : 1;
}
