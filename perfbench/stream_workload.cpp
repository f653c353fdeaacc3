// stream: three sliding-aperture sessions on one local service, driven in
// rounds by one client thread. Each round pushes one chunk per session and
// waits until all three updates are published.
//
//   A: window 8, feed 1, shared sub-aperture cache
//   B: window 4, feed 1 one chunk behind A, same cache -- B's chunk was
//      committed by A a round earlier, so every B update is a cache hit
//   C: window 8, feed 2, no cache
#include <array>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/snr.h"
#include "perfbench.h"
#include "service/service.h"
#include "streaming/streaming.h"
#include "streaming/subaperture_cache.h"

namespace perfbench {
namespace {

using namespace sarbp;

constexpr Index kStreamImage = 192;
constexpr Index kChunkPulses = 16;
/// Four incremental updates, then a re-anchor: 20% of updates re-anchor,
/// so p90 latency lands inside the re-anchor mode rather than between two
/// modes.
constexpr int kReanchorInterval = 4;
/// Feed period in chunks. Feeds are replayed cyclically so a run of any
/// length needs a fixed amount of input. A multiple of the 5-update anchor
/// cycle, so the anchored windows repeat and each distinct one is reformed
/// once; and far above the cache capacity, so a chunk is always evicted
/// before its next lap and A never sees a chunk it has cached.
constexpr Index kFeedChunks = 40;
constexpr std::size_t kCacheCapacity = 8;
/// Rounds in each set-up: fills A's and C's 8-chunk windows and B's 4-chunk
/// window, and makes B's cache hits start.
constexpr long kWarmRounds = 9;
/// Every kSampleEvery-th measured round, every snapshot is checked against
/// a from-scratch reform and the double-precision reference.
constexpr long kSampleEvery = 25;
constexpr std::uint64_t kFamilyStream = 3;

struct SessionSpec {
  const char* name;
  Index window;  ///< chunks
  bool cached;
  std::size_t feed;
  long lag;  ///< rounds behind the feed head
};
constexpr std::array<SessionSpec, 3> kSessions{{
    {"A", 8, true, 0, 0},
    {"B", 4, true, 0, 1},
    {"C", 8, false, 1, 0},
}};

streaming::StreamConfig session_config(const geometry::ImageGrid& grid,
                                       const SessionSpec& spec,
                                       streaming::SubApertureCache* cache) {
  streaming::StreamConfig config;
  config.grid = grid;
  config.asr_block_w = kAsrBlock;
  config.asr_block_h = kAsrBlock;
  config.chunk_pulses = kChunkPulses;
  config.window_chunks = spec.window;
  config.reanchor_interval = kReanchorInterval;
  config.use_simd = true;
  config.tenant = std::string("stream-") + spec.name;
  config.cache = spec.cached ? cache : nullptr;
  return config;
}

std::size_t feed_index(long chunk) {
  return static_cast<std::size_t>(chunk % kFeedChunks);
}

/// The chunk session `s` receives in round `r` (r >= lag).
const sim::PhaseHistory& chunk_at(const StreamInputs& in, std::size_t s,
                                  long r) {
  const SessionSpec& spec = kSessions[s];
  return *in.feeds[spec.feed][feed_index(r - spec.lag)];
}

/// Session `s`'s window after round `r`, oldest chunk first.
std::vector<const sim::PhaseHistory*> window_of(const StreamInputs& in,
                                                std::size_t s, long r) {
  const SessionSpec& spec = kSessions[s];
  std::vector<const sim::PhaseHistory*> window;
  for (long k = spec.window - 1; k >= 0; --k) {
    window.push_back(in.feeds[spec.feed][feed_index(r - spec.lag - k)].get());
  }
  return window;
}

bool same_history(const sim::PhaseHistory& a, const sim::PhaseHistory& b) {
  if (a.num_pulses() != b.num_pulses() ||
      a.samples_per_pulse() != b.samples_per_pulse()) {
    return false;
  }
  for (Index p = 0; p < a.num_pulses(); ++p) {
    const auto pa = a.meta(p).position;
    const auto pb = b.meta(p).position;
    if (pa.x != pb.x || pa.y != pb.y || pa.z != pb.z ||
        !std::equal(a.pulse(p).begin(), a.pulse(p).end(),
                    b.pulse(p).begin())) {
      return false;
    }
  }
  return true;
}

/// A service, its registry, the shared cache and the three sessions.
/// Members are destroyed sessions first, registry last.
struct StreamRig {
  obs::Registry registry;
  streaming::SubApertureCache cache;
  std::unique_ptr<service::ImageFormationService> service;
  std::array<streaming::StreamSession, 3> sessions;
  std::array<std::uint64_t, 3> seq{};  ///< last published per session

  explicit StreamRig(const geometry::ImageGrid& grid)
      : cache(streaming::SubApertureCacheConfig{kCacheCapacity, &registry,
                                                nullptr}) {
    service::ServiceConfig config;
    config.workers = kServiceThreads;
    config.metrics = &registry;
    service = std::make_unique<service::ImageFormationService>(config);
    for (std::size_t s = 0; s < kSessions.size(); ++s) {
      sessions[s] = streaming::open_stream(
          *service, session_config(grid, kSessions[s], &cache));
    }
  }
};

struct Round {
  std::array<bool, 3> active{};
  std::array<Clock::time_point, 3> pushed{};
  std::array<Clock::time_point, 3> in_hand{};
  /// Null when the session's update did not publish.
  std::array<std::shared_ptr<const streaming::Snapshot>, 3> snapshot{};
  Clock::time_point start;
  Clock::time_point end;
};

Round run_round(StreamRig& rig, const StreamInputs& in, long r) {
  Round round;
  round.start = Clock::now();
  for (std::size_t s = 0; s < kSessions.size(); ++s) {
    round.active[s] = r >= kSessions[s].lag;
    if (!round.active[s]) continue;
    round.pushed[s] = Clock::now();
    if (!rig.sessions[s].push(chunk_at(in, s, r))) {
      throw std::runtime_error("stream: push refused");
    }
  }
  for (std::size_t s = 0; s < kSessions.size(); ++s) {
    if (!round.active[s]) continue;
    // Idle comes with the publish (or with the failure's classification),
    // in one critical section of the session.
    if (!rig.sessions[s].wait_idle(std::chrono::seconds(60))) {
      throw std::runtime_error("stream: an update did not finish in 60 s");
    }
    auto snapshot = rig.sessions[s].latest();
    round.in_hand[s] = Clock::now();
    if (snapshot != nullptr && snapshot->seq > rig.seq[s]) {
      rig.seq[s] = snapshot->seq;
      round.snapshot[s] = std::move(snapshot);
    }
  }
  round.end = Clock::now();
  return round;
}

struct Anchor {
  std::size_t session = 0;
  long round = 0;
  std::uint64_t hash = 0;
};

}  // namespace

StreamInputs make_stream_inputs(std::uint64_t seed) {
  StreamInputs in;
  in.grid = geometry::ImageGrid(kStreamImage, kStreamImage, kPixelSpacing);
  for (std::uint64_t f = 0; f < 2; ++f) {
    in.feeds[f] = make_feed(kStreamImage, kFeedChunks, kChunkPulses,
                            derive_seed(seed, kFamilyStream, f));
  }
  return in;
}

Scene stream_probe_input(const StreamInputs& in) {
  Scene scene;
  scene.grid = in.grid;
  scene.history = std::make_shared<const sim::PhaseHistory>(
      concat(window_of(in, 0, kSessions[0].window - 1)));
  return scene;
}

Pass run_stream_pass(const StreamInputs& in, std::size_t rounds,
                     SpanLog* spans) {
  Pass pass;

  std::unique_ptr<StreamRig> rig;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<StreamRig>(in.grid);
    for (long r = 0; r < kWarmRounds; ++r) {
      const Round round = run_round(*rig, in, r);
      for (std::size_t s = 0; s < kSessions.size(); ++s) {
        if (round.active[s] && round.snapshot[s] == nullptr) {
          throw std::runtime_error("stream: a warm-up update failed");
        }
      }
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  pass.setup_s = median(setups);

  std::array<streaming::StreamStats, 3> stats_before;
  for (std::size_t s = 0; s < kSessions.size(); ++s) {
    stats_before[s] = rig->sessions[s].stats();
  }
  const obs::MetricsSnapshot before = rig->registry.snapshot();
  const double rss_before_kb = current_rss_kb();

  std::vector<Anchor> anchors;
  std::vector<double> incremental_s, reanchor_s, client_s;
  std::size_t updates = 0;
  std::size_t bad = 0;
  std::uint64_t request = 0;
  pass.min_snr_db = 1e300;
  const long last_round = kWarmRounds + static_cast<long>(rounds) - 1;
  for (long r = kWarmRounds; r <= last_round; ++r) {
    const Round round = run_round(*rig, in, r);
    const double wall = seconds_between(round.start, round.end);
    pass.wall_s += wall;
    pass.step_s.push_back(wall);
    pass.step_images.push_back(0.0);
    for (const auto& snapshot : round.snapshot) {
      if (snapshot != nullptr) pass.step_images.back() += 1.0;
    }
    // Off the clock from here to the next round: no update is in flight.
    const bool sampled = (r - kWarmRounds) % kSampleEvery == kSampleEvery - 1;
    for (std::size_t s = 0; s < kSessions.size(); ++s) {
      if (!round.active[s]) continue;
      ++pass.attempted;
      const auto& snap = round.snapshot[s];
      if (snap == nullptr) {
        ++pass.failed;
        continue;
      }
      ++updates;
      // The update's latency is the session's own stamp: its chunk completes
      // inside push(), so it runs from the push call to the publish. The
      // client's in-hand time is not used, because the client waits on the
      // sessions in a fixed order and B's and C's in-hand times would
      // include the wait for A's update (and B's).
      pass.latencies.push_back(snap->latency_seconds);
      (snap->reanchored ? reanchor_s : incremental_s)
          .push_back(snap->latency_seconds);
      const double in_hand = seconds_between(round.pushed[s], round.in_hand[s]);
      client_s.push_back(std::max(0.0, in_hand - snap->latency_seconds));
      if (spans != nullptr) {
        ++request;
        const std::uint64_t root =
            spans->add("request", request, 0, round.pushed[s], in_hand);
        spans->add(snap->reanchored ? "stream.reanchor" : "stream.incremental",
                   request, root, round.pushed[s], snap->latency_seconds);
      }
      if (snap->reanchored) {
        anchors.push_back({s, r, hash_image(snap->image)});
      }
      if (!sampled) continue;
      const sim::PhaseHistory window = concat(window_of(in, s, r));
      const Grid2D<CFloat> reform = streaming::reform_window(
          session_config(in.grid, kSessions[s], nullptr), window);
      const double db = snr_db(snap->image, reform);
      if (snap->reanchored ? !(snap->image == reform) : !(db > kMinSnrDb)) {
        ++bad;
        pass.errors.push_back(std::string("session ") + kSessions[s].name +
                              " round " + std::to_string(r) + ": " +
                              std::to_string(db) + " dB against the reform");
      }
      pass.min_snr_db = std::min(
          pass.min_snr_db, sample_snr_db(snap->image, in.grid, window));
      ++pass.snr_checked;
    }
  }
  pass.peak_rss_mb = peak_rss_mb();
  const double rss_after_kb = current_rss_kb();
  const obs::MetricsSnapshot after = rig->registry.snapshot();
  std::array<streaming::StreamStats, 3> stats_after;
  for (std::size_t s = 0; s < kSessions.size(); ++s) {
    stats_after[s] = rig->sessions[s].stats();
    // The reconstruction the checks use is the session's own window.
    if (!same_history(rig->sessions[s].window_history(),
                      concat(window_of(in, s, last_round)))) {
      pass.errors.push_back(std::string("session ") + kSessions[s].name +
                            ": window_history() differs from the feed");
    }
  }
  rig.reset();

  // Every re-anchored snapshot must be byte-identical to a reform of its
  // window. Windows repeat with the feed period; reform each one once.
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> reform_hash;
  for (const Anchor& a : anchors) {
    const auto key =
        std::make_pair(a.session, feed_index(a.round - kSessions[a.session].lag));
    auto it = reform_hash.find(key);
    if (it == reform_hash.end()) {
      const Grid2D<CFloat> reform = streaming::reform_window(
          session_config(in.grid, kSessions[a.session], nullptr),
          concat(window_of(in, a.session, a.round)));
      it = reform_hash.emplace(key, hash_image(reform)).first;
    }
    if (it->second != a.hash) {
      ++bad;
      pass.errors.push_back(std::string("session ") +
                            kSessions[a.session].name + " round " +
                            std::to_string(a.round) +
                            ": re-anchor differs from the reform");
    }
  }
  pass.failed += bad;
  pass.passed = updates - std::min(updates, bad);
  if (pass.snr_checked == 0) pass.min_snr_db = 0.0;

  const auto delta = [&](std::size_t s, auto field) {
    return static_cast<double>(stats_after[s].*field - stats_before[s].*field);
  };
  double done = 0.0;
  double backprojections = 0.0;
  for (std::size_t s = 0; s < kSessions.size(); ++s) {
    done += delta(s, &streaming::StreamStats::updates_completed);
    backprojections += delta(s, &streaming::StreamStats::backprojections);
  }
  const double a_updates = delta(0, &streaming::StreamStats::updates_completed);
  const double b_updates = delta(1, &streaming::StreamStats::updates_completed);
  const double a_hits = delta(0, &streaming::StreamStats::cache_hits);
  const double b_hits = delta(1, &streaming::StreamStats::cache_hits);
  const double per_update = std::max(1.0, done);
  auto& layers = pass.layers;
  layers["service.queue_p50_s"] = histogram_p50(after, "service.job.queue_s");
  layers["service.rejected"] =
      counter_delta(before, after, "streaming.updates.rejected");
  layers["exec.compute_p50_s"] = histogram_p50(after, "service.job.compute_s");
  layers["exec.tasks_per_job"] =
      counter_delta(before, after, "exec.tasks.run") / per_update;
  layers["exec.steals_per_job"] =
      counter_delta(before, after, "exec.tasks.stolen") / per_update;
  layers["exec.steal_fails_per_job"] =
      counter_delta(before, after, "exec.steal.fail") / per_update;
  layers["stream.incremental_p50_s"] = median(incremental_s);
  layers["stream.reanchor_p50_s"] = median(reanchor_s);
  layers["stream.bp_per_update"] = backprojections / per_update;
  layers["stream.cache_hit_ratio"] =
      (a_hits + b_hits) / std::max(1.0, a_updates + b_updates);
  layers["stream.cache_hit_ratio_b"] = b_hits / std::max(1.0, b_updates);
  layers["stream.rss_growth_kb_per_update"] =
      (rss_after_kb - rss_before_kb) / per_update;
  layers["client.self_p50_s"] = median(client_s);
  return pass;
}

}  // namespace perfbench
