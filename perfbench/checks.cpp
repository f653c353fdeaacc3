#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/region.h"
#include "common/snr.h"
#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace sarbp;

Region full_region(const geometry::ImageGrid& grid) {
  return Region{0, 0, grid.width(), grid.height()};
}

/// The ASR block that holds the grid centre. Block-aligned, so the sample
/// spans one whole block's approximation error, from its centre to its
/// corners.
Region sample_region(const geometry::ImageGrid& grid) {
  const Index x0 = (grid.width() / 2) / kAsrBlock * kAsrBlock;
  const Index y0 = (grid.height() / 2) / kAsrBlock * kAsrBlock;
  return Region{x0, y0, std::min(kAsrBlock, grid.width() - x0),
                std::min(kAsrBlock, grid.height() - y0)};
}

Grid2D<CFloat> to_image(const bp::SoaTile& tile) {
  Grid2D<CFloat> image(tile.width(), tile.height());
  tile.accumulate_into(image, Region{0, 0, tile.width(), tile.height()});
  return image;
}

/// Runs fn(0..n-1) on `threads` threads. `fn` must not throw.
template <class Fn>
void parallel_for(std::size_t n, int threads, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace

std::uint64_t hash_image(const Grid2D<CFloat>& image) {
  // FNV-1a over 64-bit words with an extra xor-shift: a byte-exact
  // fingerprint, fast enough to take for every delivered image.
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  const std::size_t n = static_cast<std::size_t>(image.size()) * sizeof(CFloat);
  std::uint64_t h = 0xCBF29CE484222325ULL ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    h = (h ^ word) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001B3ULL;
  return h;
}

Grid2D<CFloat> scalar_replay(const service::FormationPlan& plan,
                             const sim::PhaseHistory& history) {
  bp::SoaTile tile(plan.key.region.width, plan.key.region.height);
  service::execute_plan(plan, history, tile, {});
  return to_image(tile);
}

Grid2D<CFloat> simd_replay(std::shared_ptr<const service::FormationPlan> plan,
                           std::shared_ptr<const sim::PhaseHistory> history) {
  // The local service's path with its single SIMD backend, on one worker.
  // Blocks cover disjoint pixels and a block's sweep does not depend on the
  // task that runs it, so this is byte-identical to every delivery of the
  // same input, whatever the service's worker count or steals.
  obs::Registry registry;
  exec::BackendSpec simd;
  simd.kind = exec::BackendSpec::Kind::kHostSimd;
  auto backends = std::make_shared<exec::BackendSet>(
      std::vector<exec::BackendSpec>{simd}, 0.5, &registry);
  exec::ExecOptions options;
  options.workers = 1;
  options.metrics = &registry;
  exec::TileExecutor executor(std::move(options));
  const Region region = plan->key.region;
  auto tile = std::make_shared<bp::SoaTile>(region.width, region.height);
  executor.run(service::make_plan_replay_group(
      std::move(plan), std::move(history), 1, 0, tile, nullptr, nullptr, 0,
      -1, std::move(backends)));
  return to_image(*tile);
}

double sample_snr_db(const Grid2D<CFloat>& image,
                     const geometry::ImageGrid& grid,
                     const sim::PhaseHistory& history) {
  const Region sample = sample_region(grid);
  Grid2D<CDouble> reference(grid.width(), grid.height());
  bp::backproject_ref(history, grid, sample, 0, history.num_pulses(),
                      reference);
  std::vector<CFloat> measured;
  std::vector<CDouble> exact;
  measured.reserve(static_cast<std::size_t>(sample.pixels()));
  exact.reserve(static_cast<std::size_t>(sample.pixels()));
  for (Index y = sample.y0; y < sample.y0 + sample.height; ++y) {
    for (Index x = sample.x0; x < sample.x0 + sample.width; ++x) {
      measured.push_back(image.at(x, y));
      exact.push_back(reference.at(x, y));
    }
  }
  return snr_db(std::span<const CFloat>(measured),
                std::span<const CDouble>(exact));
}

std::vector<SceneCheck> check_scenes(const std::vector<Scene>& scenes,
                                     bool simd,
                                     std::vector<std::string>& errors) {
  std::vector<SceneCheck> checks(scenes.size());
  std::mutex errors_mutex;
  const auto fail = [&](std::size_t i, const std::string& why) {
    checks[i].ok = false;
    const std::lock_guard<std::mutex> lock(errors_mutex);
    errors.push_back("scene " + std::to_string(i) + ": " + why);
  };
  parallel_for(scenes.size(), kServiceThreads, [&](std::size_t i) {
    const Scene& scene = scenes[i];
    try {
      auto plan = service::build_formation_plan(
          scene.grid, full_region(scene.grid), kAsrBlock, kAsrBlock,
          *scene.history);
      const Grid2D<CFloat> scalar = scalar_replay(*plan, *scene.history);
      const Grid2D<CFloat> expected =
          simd ? simd_replay(plan, scene.history) : scalar;
      checks[i].hash = hash_image(expected);
      checks[i].snr_db = sample_snr_db(expected, scene.grid, *scene.history);
      if (simd) {
        const double db = snr_db(expected, scalar);
        if (!(db > kMinSnrDb)) {
          fail(i, "SIMD replay at " + std::to_string(db) +
                      " dB against the serial scalar replay");
        }
      }
    } catch (const std::exception& e) {
      fail(i, e.what());
    }
  });
  return checks;
}

Probe probe_layers(const std::vector<Scene>& inputs, SpanLog* spans) {
  std::vector<double> build_s, tables_rate, scalar_s, scalar_rate, simd_s,
      simd_rate;
  for (const Scene& scene : inputs) {
    const Region region = full_region(scene.grid);
    const double pulses = static_cast<double>(scene.history->num_pulses());
    const double backprojections = static_cast<double>(region.pixels()) * pulses;

    auto t0 = Clock::now();
    auto plan = service::build_formation_plan(scene.grid, region, kAsrBlock,
                                              kAsrBlock, *scene.history);
    double seconds = seconds_between(t0, Clock::now());
    if (spans != nullptr) spans->add("probe.asr.plan_build", 0, 0, t0, seconds);
    build_s.push_back(seconds);
    tables_rate.push_back(static_cast<double>(plan->blocks.size()) * pulses /
                          seconds);

    t0 = Clock::now();
    (void)scalar_replay(*plan, *scene.history);
    seconds = seconds_between(t0, Clock::now());
    if (spans != nullptr) spans->add("probe.kernel.scalar", 0, 0, t0, seconds);
    scalar_s.push_back(seconds);
    scalar_rate.push_back(backprojections / seconds);

    t0 = Clock::now();
    (void)simd_replay(plan, scene.history);
    seconds = seconds_between(t0, Clock::now());
    if (spans != nullptr) spans->add("probe.kernel.simd", 0, 0, t0, seconds);
    simd_s.push_back(seconds);
    simd_rate.push_back(backprojections / seconds);
  }
  Probe probe;
  probe.plan_build_s = median(build_s);
  probe.tables_per_s = median(tables_rate);
  probe.scalar_s = median(scalar_s);
  probe.scalar_bp_per_s = median(scalar_rate);
  probe.simd_s = median(simd_s);
  probe.simd_bp_per_s = median(simd_rate);
  return probe;
}

}  // namespace perfbench
