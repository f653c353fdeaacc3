#include <algorithm>
#include <utility>

#include "perfbench.h"

namespace perfbench {
namespace {

using namespace sarbp;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t family,
                          std::uint64_t index) {
  return splitmix64(splitmix64(splitmix64(seed) ^ family) ^ index);
}

Scene make_scene(Index image, Index pulses, std::uint64_t seed) {
  bench::BenchScenario collected = bench::make_bench_scenario(
      image, pulses, sim::CollectionFidelity::kRandom, seed);
  Scene scene;
  scene.grid = collected.grid;
  scene.history =
      std::make_shared<const sim::PhaseHistory>(std::move(collected.history));
  return scene;
}

Feed make_feed(Index image, Index chunks, Index chunk_pulses,
               std::uint64_t seed) {
  const sim::PhaseHistory all =
      bench::make_bench_scenario(image, chunks * chunk_pulses,
                                 sim::CollectionFidelity::kRandom, seed)
          .history;
  Feed feed;
  feed.reserve(static_cast<std::size_t>(chunks));
  for (Index c = 0; c < chunks; ++c) {
    auto chunk = std::make_shared<sim::PhaseHistory>(
        chunk_pulses, all.samples_per_pulse(), all.bin_spacing(),
        all.wavenumber());
    for (Index p = 0; p < chunk_pulses; ++p) {
      const auto src = all.pulse(c * chunk_pulses + p);
      std::copy(src.begin(), src.end(), chunk->pulse(p).begin());
      chunk->meta(p) = all.meta(c * chunk_pulses + p);
    }
    feed.push_back(std::move(chunk));
  }
  return feed;
}

sim::PhaseHistory concat(const std::vector<const sim::PhaseHistory*>& parts) {
  Index total = 0;
  for (const sim::PhaseHistory* h : parts) total += h->num_pulses();
  const sim::PhaseHistory& first = *parts.front();
  sim::PhaseHistory out(total, first.samples_per_pulse(), first.bin_spacing(),
                        first.wavenumber());
  Index p = 0;
  for (const sim::PhaseHistory* h : parts) {
    for (Index i = 0; i < h->num_pulses(); ++i, ++p) {
      const auto src = h->pulse(i);
      std::copy(src.begin(), src.end(), out.pulse(p).begin());
      out.meta(p) = h->meta(i);
    }
  }
  return out;
}

}  // namespace perfbench
