// Streaming sliding-aperture tests: incremental-vs-full parity (bit-exact
// at re-anchors, > 70 dB drift bound between them, across scalar/SIMD and
// steal on/off, and every incremental snapshot the serial fold of its
// chunks' reforms), the O(delta) vs O(full) operation-count acceptance
// bound, re-anchor cadence, sub-aperture cache hit/eviction/collision
// behaviour and byte accounting, a closed session releasing its partials
// to the cache, cancel and deadline expiry mid-update, the queued-cancel
// abandonment path, refused batches buffering nothing, a region past
// Index's range refused at open, the streaming trace round trip + replay,
// and the ASR core's invariant that neither the table source nor the
// chunking of the pulses changes bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backprojection/asr_sweep.h"
#include "common/check.h"
#include "common/snr.h"
#include "exec/executor.h"
#include "exec/formation_tasks.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "service/trace.h"
#include "streaming/streaming.h"
#include "streaming/subaperture_cache.h"
#include "streaming/trace_replay.h"
#include "test_helpers.h"

namespace sarbp::streaming {
namespace {

using namespace std::chrono_literals;
using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::alternate_loop_orders;
using sarbp::testing::make_scenario;
using sarbp::testing::slice;

constexpr auto kWait = 120s;

void expect_bit_identical(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (Index y = 0; y < a.height(); ++y) {
    const auto ra = a.row(y);
    const auto rb = b.row(y);
    for (Index x = 0; x < a.width(); ++x) {
      const auto ax = static_cast<std::size_t>(x);
      ASSERT_EQ(ra[ax].real(), rb[ax].real()) << "at (" << x << "," << y << ")";
      ASSERT_EQ(ra[ax].imag(), rb[ax].imag()) << "at (" << x << "," << y << ")";
    }
  }
}

// --- incremental vs from-scratch parity ----------------------------------

/// After every update: a re-anchored snapshot must equal reform_window()
/// bit for bit; an incremental one must track it within the drift bound.
/// `chunk` pulses per update.
void run_parity(bool simd, bool steal, Index chunk = 6) {
  ScenarioConfig cfg;
  cfg.image = 48;
  cfg.pulses = 48;
  cfg.seed = 11;
  const SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.steal = steal;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = chunk;
  config.window_chunks = 4;
  config.reanchor_interval = 3;  // anchors land on updates 4 and 8
  config.use_simd = simd;
  StreamSession session = open_stream(srv, config);

  const Index chunks = cfg.pulses / config.chunk_pulses;
  bool saw_anchor = false;
  bool saw_incremental = false;
  for (Index c = 0; c < chunks; ++c) {
    ASSERT_TRUE(session.push(slice(s.history, c * config.chunk_pulses,
                                   (c + 1) * config.chunk_pulses)));
    ASSERT_TRUE(session.wait_for_update(static_cast<std::uint64_t>(c) + 1,
                                        kWait));
    ASSERT_TRUE(session.wait_idle(kWait));
    const auto snap = session.latest();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->seq, static_cast<std::uint64_t>(c) + 1);

    const sim::PhaseHistory window = session.window_history();
    EXPECT_EQ(window.num_pulses(), snap->window_pulses);
    const Grid2D<CFloat> reference = reform_window(config, window);
    if (snap->reanchored) {
      saw_anchor = true;
      expect_bit_identical(snap->image, reference);
    } else {
      saw_incremental = true;
      EXPECT_GT(snr_db(snap->image, reference), 70.0)
          << "drift bound violated at update " << snap->seq;
    }
  }
  EXPECT_TRUE(saw_anchor);
  EXPECT_TRUE(saw_incremental);
  EXPECT_EQ(session.stats().updates_completed,
            static_cast<std::uint64_t>(chunks));
  session.close();
}

TEST(StreamingParity, ScalarNoSteal) { run_parity(false, false); }
TEST(StreamingParity, ScalarSteal) { run_parity(false, true); }
TEST(StreamingParity, SimdNoSteal) { run_parity(true, false); }
TEST(StreamingParity, SimdSteal) { run_parity(true, true); }
// 5-pulse chunks: the table build's lane groups (4 or 8 tables) cross
// chunk boundaries and end in a partial group.
TEST(StreamingParity, ScalarFivePulseChunks) { run_parity(false, false, 5); }
TEST(StreamingParity, SimdFivePulseChunks) { run_parity(true, false, 5); }

/// Every snapshot, byte for byte, against a serial fold of the chunks' own
/// reforms: since the last re-anchor (whose snapshot is the window's
/// reform), += each new chunk's reform_window image, then -= each expired
/// chunk's, oldest first; before the first re-anchor the fold starts at
/// zeros. The session sweeps each chunk into its partial with the reform's
/// bytes and slides its window in that order, so nothing may differ.
TEST(StreamingParity, IncrementalSnapshotsFoldChunkReforms) {
  ScenarioConfig cfg;
  cfg.image = 40;
  cfg.pulses = 60;
  cfg.seed = 13;
  const SmallScenario s = make_scenario(cfg);

  for (const bool simd : {false, true}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    obs::Registry reg;
    service::ServiceConfig sc;
    sc.workers = 2;
    sc.metrics = &reg;
    service::ImageFormationService srv(sc);

    StreamConfig config;
    config.grid = s.grid;
    config.asr_block_w = config.asr_block_h = 16;
    config.chunk_pulses = 5;
    config.window_chunks = 3;
    config.reanchor_interval = 4;  // anchors land on updates 5 and 10
    config.use_simd = simd;
    StreamSession session = open_stream(srv, config);

    Grid2D<CFloat> fold(cfg.image, cfg.image);
    std::deque<Grid2D<CFloat>> parts;  // the window's chunk reforms
    int incremental_after_eviction = 0;
    for (Index c = 0; c < cfg.pulses / config.chunk_pulses; ++c) {
      const sim::PhaseHistory chunk = slice(
          s.history, c * config.chunk_pulses, (c + 1) * config.chunk_pulses);
      ASSERT_TRUE(session.push(chunk));
      const auto seq = static_cast<std::uint64_t>(c) + 1;
      ASSERT_TRUE(session.wait_for_update(seq, kWait));
      ASSERT_TRUE(session.wait_idle(kWait));
      const auto snap = session.latest();
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->seq, seq);

      parts.push_back(reform_window(config, chunk));
      const bool evicts =
          parts.size() > static_cast<std::size_t>(config.window_chunks);
      if (snap->reanchored) {
        fold = reform_window(config, session.window_history());
        if (evicts) parts.pop_front();
      } else {
        auto dst = fold.flat();
        for (std::size_t i = 0; i < dst.size(); ++i) {
          dst[i] += parts.back().flat()[i];
        }
        if (evicts) {
          for (std::size_t i = 0; i < dst.size(); ++i) {
            dst[i] -= parts.front().flat()[i];
          }
          parts.pop_front();
          ++incremental_after_eviction;
        }
      }
      SCOPED_TRACE("update " + std::to_string(seq));
      expect_bit_identical(snap->image, fold);
    }
    EXPECT_EQ(session.stats().reanchors, 2u);
    EXPECT_GE(incremental_after_eviction, 6);
    session.close();
  }
}

// --- the ASR core's invariant: table source and chunking keep bits -------

Grid2D<CFloat> image_of(const bp::SoaTile& tile) {
  Grid2D<CFloat> image(tile.width(), tile.height());
  tile.accumulate_into(image, Region{0, 0, tile.width(), tile.height()});
  return image;
}

/// Plan replay: execute_plan for the scalar kernel, a one-worker replay
/// group on a `kernel` backend otherwise.
Grid2D<CFloat> replay(const std::shared_ptr<const service::FormationPlan>& plan,
                      const std::shared_ptr<const sim::PhaseHistory>& pulses,
                      const bp::AsrKernel& kernel) {
  const Region& region = plan->key.region;
  auto tile = std::make_shared<bp::SoaTile>(region.width, region.height);
  if (kernel.isa == bp::SimdIsa::kScalar) {
    EXPECT_TRUE(service::execute_plan(*plan, *pulses, *tile, nullptr));
    return image_of(*tile);
  }
  obs::Registry reg;
  exec::ExecOptions options;
  options.workers = 1;
  options.metrics = &reg;
  exec::TileExecutor executor(std::move(options));
  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kHostSimd;
  spec.isa = kernel.isa;
  spec.variant = kernel.variant;
  executor.run(service::make_plan_replay_group(
      plan, pulses, 1, 0, tile, nullptr, nullptr, 0, -1,
      std::make_shared<exec::BackendSet>(std::vector<exec::BackendSpec>{spec},
                                         0.5, &reg)));
  return image_of(*tile);
}

/// The one ASR sweep's contract (backprojection/asr_sweep.h): on a history
/// whose loop order switches every 8 pulses, tables built on the fly over
/// the whole history, over 6-pulse chunks (runs cross chunk boundaries),
/// and prebuilt by a plan all give the same bytes — per kernel, and through
/// the public paths reform_window, a re-anchored StreamSession snapshot,
/// and the plan replay.
TEST(AsrSweepCore, TableSourceAndChunkingKeepBits) {
  ScenarioConfig cfg;
  cfg.image = 48;
  cfg.pulses = 48;
  cfg.seed = 17;
  const SmallScenario s = make_scenario(cfg);
  const auto history = std::make_shared<const sim::PhaseHistory>(
      alternate_loop_orders(s.history, s.grid.centre()));
  constexpr Index kBlock = 16;
  constexpr Index kChunk = 6;
  const Region region{0, 0, cfg.image, cfg.image};
  const auto plan = service::build_formation_plan(s.grid, region, kBlock,
                                                  kBlock, *history);
  Index runs = 1;
  for (std::size_t p = 1; p < plan->pulse_order.size(); ++p) {
    if (plan->pulse_order[p] != plan->pulse_order[p - 1]) ++runs;
  }
  ASSERT_GE(runs, 3);

  std::vector<sim::PhaseHistory> chunks;
  for (Index p = 0; p < cfg.pulses; p += kChunk) {
    chunks.push_back(slice(*history, p, p + kChunk));
  }
  std::vector<bp::PulseRange> chunk_ranges;
  for (const auto& c : chunks) chunk_ranges.push_back({&c, 0, kChunk});
  const bp::PulseRange whole[] = {{history.get(), 0, cfg.pulses}};
  const auto blocks = asr::plan_blocks(0, 0, cfg.image, cfg.image, kBlock,
                                       kBlock);
  const auto sweep = [&](std::span<const bp::PulseRange> pulses,
                         const bp::AsrKernel& kernel) {
    bp::SoaTile tile(region.width, region.height);
    for (const auto& block : blocks) {
      bp::sweep_asr_block(block, 0, 0, s.grid, pulses, std::nullopt, kernel,
                          tile);
    }
    return image_of(tile);
  };
  for (const bp::AsrKernel kernel :
       {bp::AsrKernel{}, bp::AsrKernel{bp::SimdIsa::kAvx2},
        bp::AsrKernel{bp::SimdIsa::kAvx512}}) {
    if (!bp::asr_isa_available(kernel.isa)) continue;
    SCOPED_TRACE(std::string(bp::simd_isa_name(kernel.isa)) + "/" +
                 bp::kernel_variant_name(kernel.variant));
    const Grid2D<CFloat> expected = sweep(whole, kernel);
    expect_bit_identical(sweep(chunk_ranges, kernel), expected);
    expect_bit_identical(replay(plan, history, kernel), expected);
  }

  for (const bool simd : {false, true}) {
    if (simd && !bp::asr_simd_available()) continue;
    SCOPED_TRACE(simd ? "stream simd" : "stream scalar");
    obs::Registry reg;
    service::ServiceConfig sc;
    sc.workers = 2;
    sc.metrics = &reg;
    service::ImageFormationService srv(sc);
    StreamConfig config;
    config.grid = s.grid;
    config.asr_block_w = config.asr_block_h = kBlock;
    config.chunk_pulses = kChunk;
    config.window_chunks = static_cast<Index>(chunks.size());
    // Updates 1-7 are incremental; update 8 re-anchors the full window.
    config.reanchor_interval = static_cast<int>(chunks.size()) - 1;
    config.use_simd = simd;
    StreamSession session = open_stream(srv, config);
    for (const auto& c : chunks) ASSERT_TRUE(session.push(c));
    ASSERT_TRUE(session.wait_for_update(chunks.size(), kWait));
    ASSERT_TRUE(session.wait_idle(kWait));
    const auto snap = session.latest();
    ASSERT_NE(snap, nullptr);
    ASSERT_TRUE(snap->reanchored);
    ASSERT_EQ(snap->window_pulses, cfg.pulses);
    const Grid2D<CFloat> reference =
        reform_window(config, session.window_history());
    expect_bit_identical(snap->image, reference);
    expect_bit_identical(
        replay(plan, history,
               bp::AsrKernel{bp::asr_resolve_isa(
                   simd ? bp::SimdIsa::kAuto : bp::SimdIsa::kScalar)}),
        reference);
    session.close();
  }
}

/// One formation schedule, one byte lineage: the batch driver (one task
/// per block on its own pool), the local service (a plan replay, one task
/// per block on 3 workers) and reform_window (one serial SIMD kernel call)
/// form one 256^2 x 256-pulse scene with 64^2 blocks into the same bytes
/// (all three run the portable sweep on a host without a vector ISA).
TEST(AsrSweepCore, DriverServiceAndReformWindowAgree) {
  ScenarioConfig cfg;
  cfg.image = 256;
  cfg.pulses = 256;
  cfg.seed = 23;
  const SmallScenario s = make_scenario(cfg);
  constexpr Index kBlock = 64;

  bp::BackprojectOptions options;
  options.kernel = bp::KernelKind::kAsrSimd;
  options.asr_block_w = options.asr_block_h = kBlock;
  options.threads = 4;
  const Grid2D<CFloat> driver =
      exec::Backprojector(s.grid, options).form_image(s.history);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 3;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);
  service::ImageFormationRequest request;
  request.grid = s.grid;
  request.pulses = std::make_shared<const sim::PhaseHistory>(s.history);
  request.asr_block_w = request.asr_block_h = kBlock;
  const service::SubmitOutcome outcome = srv.submit(std::move(request));
  ASSERT_TRUE(outcome.admitted());
  const service::JobResult& served = outcome.handle->wait();
  ASSERT_EQ(served.state, service::JobState::kDone) << served.error;

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = kBlock;
  config.use_simd = true;
  const Grid2D<CFloat> reformed = reform_window(config, s.history);

  expect_bit_identical(driver, reformed);
  expect_bit_identical(served.image, reformed);
}

// --- O(delta) vs O(full): the acceptance bound ---------------------------

TEST(StreamingOps, WindowedStreamBeatsFullReformsFiveFold) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 48;
  cfg.seed = 5;
  const SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 2;  // delta << window
  config.window_chunks = 10;
  config.reanchor_interval = 12;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  const auto updates =
      static_cast<std::uint64_t>(cfg.pulses / config.chunk_pulses);
  ASSERT_TRUE(session.wait_for_update(updates, kWait));
  ASSERT_TRUE(session.wait_idle(kWait));

  const StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_completed, updates);
  EXPECT_EQ(stats.reanchors, 1u);  // update 13

  // What N from-scratch reforms of the same sliding windows would cost, in
  // the same (pixel, pulse) units the session counts.
  const auto pixels = static_cast<std::uint64_t>(cfg.image) *
                      static_cast<std::uint64_t>(cfg.image);
  std::uint64_t full_reform_ops = 0;
  for (std::uint64_t u = 1; u <= updates; ++u) {
    const std::uint64_t window_pulses =
        std::min<std::uint64_t>(u, static_cast<std::uint64_t>(
                                       config.window_chunks)) *
        static_cast<std::uint64_t>(config.chunk_pulses);
    full_reform_ops += pixels * window_pulses;
  }
  ASSERT_GT(stats.backprojections, 0u);
  EXPECT_GE(full_reform_ops, 5 * stats.backprojections)
      << "streaming spent " << stats.backprojections
      << " backprojections; N full reforms would spend " << full_reform_ops;
  // The obs counter is the same observable (a no-op stub under OBS=OFF).
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("streaming.backprojections").value(),
              stats.backprojections);
    EXPECT_EQ(reg.counter("streaming.reanchors").value(), stats.reanchors);
  }
  session.close();
}

// --- re-anchor cadence ---------------------------------------------------

TEST(StreamingReanchor, CadenceFollowsConfiguredInterval) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 28;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 3;
  config.reanchor_interval = 2;  // updates 3 and 6 re-anchor
  StreamSession session = open_stream(srv, config);

  std::vector<bool> reanchored;
  for (Index c = 0; c < 7; ++c) {
    ASSERT_TRUE(session.push(slice(s.history, c * 4, (c + 1) * 4)));
    ASSERT_TRUE(session.wait_for_update(static_cast<std::uint64_t>(c) + 1,
                                        kWait));
    reanchored.push_back(session.latest()->reanchored);
  }
  const std::vector<bool> expected = {false, false, true, false,
                                      false, true,  false};
  EXPECT_EQ(reanchored, expected);
  EXPECT_EQ(session.stats().reanchors, 2u);
}

// --- sub-aperture cache --------------------------------------------------

TEST(SubApertureCache, SharedAcrossSessionsSkipsResweep) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  SubApertureCacheConfig cache_config;
  cache_config.capacity = 16;
  cache_config.metrics = &reg;
  SubApertureCache cache(cache_config);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 6;  // whole collection fits: no expiry
  config.reanchor_interval = 0;
  config.cache = &cache;

  StreamSession a = open_stream(srv, config);
  ASSERT_TRUE(a.push(s.history));
  ASSERT_TRUE(a.wait_for_update(6, kWait));
  ASSERT_TRUE(a.wait_idle(kWait));
  const StreamStats stats_a = a.stats();
  EXPECT_EQ(stats_a.cache_hits, 0u);
  ASSERT_GT(stats_a.backprojections, 0u);
  EXPECT_EQ(cache.size(), 6u);

  // Same scene, same geometry: every chunk partial comes from the cache,
  // and the image is the exact tile sum the first session committed.
  StreamSession b = open_stream(srv, config);
  ASSERT_TRUE(b.push(s.history));
  ASSERT_TRUE(b.wait_for_update(6, kWait));
  ASSERT_TRUE(b.wait_idle(kWait));
  const StreamStats stats_b = b.stats();
  EXPECT_EQ(stats_b.cache_hits, 6u);
  EXPECT_EQ(stats_b.backprojections, 0u);
  expect_bit_identical(b.latest()->image, a.latest()->image);

  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("streaming.cache.hits").value(), 6u);
    EXPECT_EQ(reg.counter("streaming.cache.inserts").value(), 6u);
  }

  // A repeat pass over a changed scene: the same trajectory with other
  // echoes. Its first chunk has the key of a's first chunk, so the lookup
  // compares the stored chunk, finds other samples, and sweeps. One chunk,
  // so the image is one partial and must equal the reform bit for bit.
  sim::PhaseHistory changed = s.history;
  for (Index p = 0; p < changed.num_pulses(); ++p) {
    for (CFloat& v : changed.pulse(p)) v *= CFloat(0.0f, 2.0f);
  }
  StreamSession c = open_stream(srv, config);
  ASSERT_TRUE(c.push(slice(changed, 0, config.chunk_pulses)));
  ASSERT_TRUE(c.wait_for_update(1, kWait));
  ASSERT_TRUE(c.wait_idle(kWait));
  EXPECT_EQ(c.stats().cache_hits, 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("streaming.cache.collisions").value(), 1u);
  }
  expect_bit_identical(c.latest()->image,
                       reform_window(config, c.window_history()));

  // The kernel is not part of the match: a SIMD session takes the scalar
  // session's partials and stays inside the drift bound of its own reform.
  // The scalar and SIMD sweeps give the same bytes, so its image is the one
  // a SIMD session sweeping every chunk itself delivers.
  StreamConfig simd_config = config;
  simd_config.use_simd = true;
  StreamSession d = open_stream(srv, simd_config);
  ASSERT_TRUE(d.push(s.history));
  ASSERT_TRUE(d.wait_for_update(6, kWait));
  ASSERT_TRUE(d.wait_idle(kWait));
  EXPECT_EQ(d.stats().cache_hits, 6u);
  EXPECT_GT(snr_db(d.latest()->image,
                   reform_window(simd_config, d.window_history())),
            70.0);
  StreamConfig uncached = simd_config;
  uncached.cache = nullptr;
  StreamSession e = open_stream(srv, uncached);
  ASSERT_TRUE(e.push(s.history));
  ASSERT_TRUE(e.wait_for_update(6, kWait));
  ASSERT_TRUE(e.wait_idle(kWait));
  ASSERT_GT(e.stats().backprojections, 0u);
  expect_bit_identical(d.latest()->image, e.latest()->image);
}

TEST(SubApertureCache, ClosedSessionLeavesPartialsToTheCache) {
  // An update's job handle holds its request, whose factory holds the
  // update and the session. Unless the session drops the handle once the
  // update resolves, that cycle keeps every update (chunk and partial
  // images) and the session alive after close.
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 12;
  const SmallScenario s = make_scenario(cfg);
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  SubApertureCacheConfig cache_config;
  cache_config.capacity = 16;
  cache_config.metrics = &reg;
  SubApertureCache cache(cache_config);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 2;
  config.reanchor_interval = 0;
  config.cache = &cache;
  {
    StreamSession session = open_stream(srv, config);
    ASSERT_TRUE(session.push(s.history));
    ASSERT_TRUE(session.wait_for_update(3, kWait));
    ASSERT_TRUE(session.wait_idle(kWait));
    session.close();
  }
  srv.drain();  // the executor has released every finished group

  // The first chunk has left the window, the last one is still in it.
  for (const Index p0 : {Index{0}, Index{8}}) {
    const sim::PhaseHistory chunk = slice(s.history, p0, p0 + 4);
    const SubApertureCache::Partial partial =
        cache.find(cache.make_key(s.grid, region, 16, 16, chunk), chunk);
    ASSERT_NE(partial, nullptr) << "chunk at pulse " << p0;
    EXPECT_EQ(partial.use_count(), 2) << "chunk at pulse " << p0;
  }
}

TEST(SubApertureCache, ExpiredPartialsKeepTheirBytesWhileCached) {
  // A session sweeps into a partial's buffer again only once the
  // partial's last owner has dropped it. Here the cache holds every
  // partial, so each one must still be its chunk's reform after later
  // sweeps.
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 20;
  const SmallScenario s = make_scenario(cfg);
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  SubApertureCacheConfig cache_config;
  cache_config.capacity = 16;
  cache_config.metrics = &reg;
  SubApertureCache cache(cache_config);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 2;  // chunks 1-3 expire before the last sweep
  config.reanchor_interval = 0;
  config.cache = &cache;
  StreamSession session = open_stream(srv, config);
  ASSERT_TRUE(session.push(s.history));
  ASSERT_TRUE(session.wait_for_update(5, kWait));
  ASSERT_TRUE(session.wait_idle(kWait));

  for (Index p0 = 0; p0 < cfg.pulses; p0 += config.chunk_pulses) {
    SCOPED_TRACE("chunk at pulse " + std::to_string(p0));
    const sim::PhaseHistory chunk = slice(s.history, p0, p0 + 4);
    const SubApertureCache::Partial partial =
        cache.find(cache.make_key(s.grid, region, 16, 16, chunk), chunk);
    ASSERT_NE(partial, nullptr);
    expect_bit_identical(*partial, reform_window(config, chunk));
  }
  session.close();
}

/// A zeroed image x image partial for the cache tests that never read it.
SubApertureCache::Partial partial_image(Index image) {
  return std::make_shared<const Grid2D<CFloat>>(image, image);
}

TEST(SubApertureCache, EvictsLeastRecentlyUsed) {
  ScenarioConfig cfg;
  cfg.image = 24;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  const auto c1 = std::make_shared<const sim::PhaseHistory>(
      slice(s.history, 0, 4));
  const auto c2 = std::make_shared<const sim::PhaseHistory>(
      slice(s.history, 4, 8));
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  SubApertureCacheConfig config;
  config.capacity = 1;
  config.metrics = &reg;
  SubApertureCache cache(config);

  const auto k1 = cache.make_key(s.grid, region, 16, 16, *c1);
  const auto k2 = cache.make_key(s.grid, region, 16, 16, *c2);
  cache.insert(k1, c1, partial_image(cfg.image));
  EXPECT_NE(cache.find(k1, *c1), nullptr);

  cache.insert(k2, c2, partial_image(cfg.image));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(k1, *c1), nullptr);  // evicted
  EXPECT_NE(cache.find(k2, *c2), nullptr);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("streaming.cache.evictions").value(), 1u);
  }
}

TEST(SubApertureCache, BytesCountPartialImagesAndChunks) {
  // An entry's bytes are its partial image (width x height CFloat) plus
  // its chunk's samples; the gauges follow inserts and the eviction.
  ScenarioConfig cfg;
  cfg.image = 24;
  cfg.pulses = 12;
  const SmallScenario s = make_scenario(cfg);
  const Region region{0, 0, cfg.image, cfg.image};
  std::vector<std::shared_ptr<const sim::PhaseHistory>> chunks;
  for (const Index p0 : {Index{0}, Index{3}, Index{7}}) {
    // Chunks of 3, 4 and 5 pulses: each entry's payload differs.
    chunks.push_back(std::make_shared<const sim::PhaseHistory>(
        slice(s.history, p0, p0 + 3 + static_cast<Index>(chunks.size()))));
  }

  obs::Registry reg;
  SubApertureCacheConfig config;
  config.capacity = 2;
  config.metrics = &reg;
  SubApertureCache cache(config);
  for (const auto& chunk : chunks) {
    cache.insert(cache.make_key(s.grid, region, 16, 16, *chunk), chunk,
                 partial_image(cfg.image));
  }
  EXPECT_EQ(cache.size(), 2u);  // the first chunk's entry was evicted
  if (obs::kEnabled) {
    const std::size_t image_bytes =
        static_cast<std::size_t>(cfg.image * cfg.image) * sizeof(CFloat);
    const std::size_t expected = 2 * image_bytes +
                                 chunks[1]->payload_bytes() +
                                 chunks[2]->payload_bytes();
    EXPECT_EQ(reg.gauge("streaming.cache.bytes").value(),
              static_cast<std::int64_t>(expected));
    EXPECT_EQ(reg.gauge("streaming.cache.entries").value(),
              static_cast<std::int64_t>(cache.size()));
    EXPECT_EQ(reg.counter("streaming.cache.evictions").value(), 1u);
  }
}

TEST(SubApertureCache, SignatureCollisionServedAsMiss) {
  ScenarioConfig cfg;
  cfg.image = 24;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  const auto c1 = std::make_shared<const sim::PhaseHistory>(
      slice(s.history, 0, 4));
  const auto c2 = std::make_shared<const sim::PhaseHistory>(
      slice(s.history, 4, 8));
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  SubApertureCacheConfig config;
  config.metrics = &reg;
  // Force every chunk onto one key: c2's lookup collides with c1's entry.
  config.signature_fn = [](const sim::PhaseHistory&) -> std::uint64_t {
    return 42;
  };
  SubApertureCache cache(config);

  const auto k1 = cache.make_key(s.grid, region, 16, 16, *c1);
  const auto k2 = cache.make_key(s.grid, region, 16, 16, *c2);
  EXPECT_EQ(k1.pulse_signature, k2.pulse_signature);

  cache.insert(k1, c1, partial_image(cfg.image));
  EXPECT_EQ(cache.find(k2, *c2), nullptr);  // other pulses
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("streaming.cache.collisions").value(), 1u);
  }
  EXPECT_NE(cache.find(k1, *c1), nullptr);  // the real owner still hits

  // c1's pulse geometry with one sample changed shares c1's key without
  // the hook; only the stored chunk's samples tell them apart.
  sim::PhaseHistory c3 = *c1;
  c3.pulse(0)[0] += CFloat(1.0f, 0.0f);
  EXPECT_EQ(service::make_plan_key(s.grid, region, 16, 16, c3),
            service::make_plan_key(s.grid, region, 16, 16, *c1));
  EXPECT_EQ(cache.find(cache.make_key(s.grid, region, 16, 16, c3), c3),
            nullptr);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("streaming.cache.collisions").value(), 2u);
  }
}

// --- cancellation and deadlines mid-update -------------------------------

TEST(StreamingLifecycle, CancelMidUpdateMutatesNothing) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 16;
  const SmallScenario s = make_scenario(cfg);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool released = false;
  service::ServiceConfig sc;
  sc.workers = 2;
  // Hold every worker at its first checkpoint until the test releases it,
  // so cancel() provably lands while the update is mid-flight.
  sc.inter_block_hook = [&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return released; });
  };
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(slice(s.history, 0, 8)));
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, kWait, [&] { return entered; }));
  }
  session.cancel();
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    released = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(session.wait_idle(kWait));

  StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_cancelled, 1u);
  EXPECT_EQ(stats.updates_completed, 0u);
  EXPECT_EQ(session.latest(), nullptr);
  EXPECT_EQ(session.window_history().num_pulses(), 0);

  // The session survives a cancelled update: the next chunk goes through.
  ASSERT_TRUE(session.push(slice(s.history, 8, 16)));
  ASSERT_TRUE(session.wait_for_update(1, kWait));
  EXPECT_EQ(session.stats().updates_completed, 1u);
}

TEST(StreamingLifecycle, DeadlineExpiryDropsUpdate) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);

  std::atomic<bool> slept{false};
  service::ServiceConfig sc;
  sc.workers = 1;
  sc.inter_block_hook = [&] {
    if (!slept.exchange(true)) {
      // Push the first checkpoint past the update deadline.
      // lint: allow(sleep-poll) -- forcing a deterministic deadline miss
      std::this_thread::sleep_for(150ms);
    }
  };
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  config.update_deadline = 50ms;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  ASSERT_TRUE(session.wait_idle(kWait));
  const StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_expired, 1u)
      << "completed=" << stats.updates_completed
      << " failed=" << stats.updates_failed
      << " cancelled=" << stats.updates_cancelled
      << " rejected=" << stats.updates_rejected;
  EXPECT_EQ(stats.updates_completed, 0u);
  EXPECT_EQ(session.latest(), nullptr);
}

TEST(StreamingLifecycle, CancelWhileQueuedAbandonsCleanly) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;  // the update stays QUEUED until resume()
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  session.cancel();  // resolves the queued handle immediately
  srv.resume();
  // The dequeue-side abandonment must clear the in-flight slot even though
  // the update's factory never ran.
  ASSERT_TRUE(session.wait_idle(kWait));
  const StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_cancelled, 1u);
  EXPECT_EQ(stats.updates_completed, 0u);
}

TEST(StreamingLifecycle, CloseStopsIngestionButDrains) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 16;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(slice(s.history, 0, 8)));
  session.close();
  EXPECT_FALSE(session.push(slice(s.history, 8, 16)));
  ASSERT_TRUE(session.wait_idle(kWait));
  EXPECT_EQ(session.stats().updates_completed, 1u);
}

TEST(StreamingLifecycle, InconsistentSamplingRejected) {
  // A batch with no samples (no pulses: a history cannot hold zero-sample
  // pulses), or whose samples per pulse, bin spacing or wavenumber differ
  // from the first push's, is refused before any of its pulses enter the
  // fill buffer: the session's images stay, byte for byte, those of a
  // session that never saw it. The refused batches are shorter than a
  // chunk, so a buffered pulse would shift every later chunk.
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);
  const sim::PhaseHistory& h = s.history;

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 6;
  config.window_chunks = 2;
  StreamSession clean = open_stream(srv, config);
  StreamSession dirty = open_stream(srv, config);

  const auto empty_batches = [&] {
    EXPECT_FALSE(dirty.push(sim::PhaseHistory{}));
    EXPECT_FALSE(dirty.push(sim::PhaseHistory(0, h.samples_per_pulse(),
                                              h.bin_spacing(),
                                              h.wavenumber())));
  };
  // Pulses p0..p0+3 of the scene under other sampling constants.
  const auto resampled = [&](Index p0, Index samples, double spacing,
                             double wavenumber) {
    sim::PhaseHistory out(4, samples, spacing, wavenumber);
    for (Index p = 0; p < 4; ++p) {
      const auto src = h.pulse(p0 + p);
      std::copy_n(src.begin(), std::min(samples, h.samples_per_pulse()),
                  out.pulse(p).begin());
      out.meta(p) = h.meta(p0 + p);
    }
    return out;
  };
  empty_batches();  // before the first push fixes the sampling
  const Index chunks = cfg.pulses / config.chunk_pulses;
  for (Index c = 0; c < chunks; ++c) {
    const Index p0 = c * config.chunk_pulses;
    if (c == 1) {
      EXPECT_FALSE(dirty.push(resampled(p0, h.samples_per_pulse() + 1,
                                        h.bin_spacing(), h.wavenumber())));
      EXPECT_FALSE(dirty.push(resampled(p0, h.samples_per_pulse(),
                                        2.0 * h.bin_spacing(),
                                        h.wavenumber())));
      EXPECT_FALSE(dirty.push(resampled(p0, h.samples_per_pulse(),
                                        h.bin_spacing(),
                                        1.5 * h.wavenumber())));
      empty_batches();
    }
    const sim::PhaseHistory chunk = slice(h, p0, p0 + config.chunk_pulses);
    ASSERT_TRUE(clean.push(chunk));
    ASSERT_TRUE(dirty.push(chunk));
    const auto seq = static_cast<std::uint64_t>(c) + 1;
    ASSERT_TRUE(clean.wait_for_update(seq, kWait));
    ASSERT_TRUE(dirty.wait_for_update(seq, kWait));
    ASSERT_TRUE(clean.wait_idle(kWait));
    ASSERT_TRUE(dirty.wait_idle(kWait));
    const auto want = clean.latest();
    const auto got = dirty.latest();
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->seq, want->seq);
    expect_bit_identical(got->image, want->image);
  }
  EXPECT_EQ(dirty.stats().updates_completed,
            static_cast<std::uint64_t>(chunks));
}

TEST(StreamingLifecycle, NonFiniteBatchRejectedWhole) {
  // A batch holding a NaN or Inf sample is refused before any of its
  // pulses enter the fill buffer: the session's images stay, byte for
  // byte, those of a session that never saw it. The bad batches are
  // shorter than a chunk, so a buffered pulse would shift every later
  // chunk.
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 6;
  config.window_chunks = 2;
  StreamSession clean = open_stream(srv, config);
  StreamSession dirty = open_stream(srv, config);

  const auto poisoned = [&](Index p0, float value) {
    sim::PhaseHistory bad = slice(s.history, p0, p0 + 4);
    bad.pulse(3)[5] = CFloat(0.0f, value);
    return bad;
  };
  const Index chunks = cfg.pulses / config.chunk_pulses;
  for (Index c = 0; c < chunks; ++c) {
    const Index p0 = c * config.chunk_pulses;
    if (c == 0) {
      EXPECT_FALSE(dirty.push(poisoned(p0, std::nanf(""))));
    }
    if (c == 2) {
      EXPECT_FALSE(
          dirty.push(poisoned(p0, std::numeric_limits<float>::infinity())));
    }
    const sim::PhaseHistory chunk = slice(s.history, p0, p0 + 6);
    ASSERT_TRUE(clean.push(chunk));
    ASSERT_TRUE(dirty.push(chunk));
    const auto seq = static_cast<std::uint64_t>(c) + 1;
    ASSERT_TRUE(clean.wait_for_update(seq, kWait));
    ASSERT_TRUE(dirty.wait_for_update(seq, kWait));
    ASSERT_TRUE(clean.wait_idle(kWait));
    ASSERT_TRUE(dirty.wait_idle(kWait));
    const auto want = clean.latest();
    const auto got = dirty.latest();
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->seq, want->seq);
    expect_bit_identical(got->image, want->image);
  }
  EXPECT_EQ(dirty.stats().updates_completed,
            static_cast<std::uint64_t>(chunks));
}

TEST(StreamingLifecycle, RegionPastIndexRangeRefusedAtOpen) {
  // A region whose end coordinate would overflow Index is outside any
  // grid: open_stream refuses it instead of opening a session over the
  // wrapped sum, as it refuses a region that merely runs off the grid.
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 6;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  constexpr Index kMax = std::numeric_limits<Index>::max();
  for (const Region region :
       {Region{0, kMax - 1, 3, 2}, Region{kMax - 1, 0, 2, 3},
        Region{0, 0, 33, 4}}) {
    StreamConfig config;
    config.grid = s.grid;
    config.region = region;
    config.asr_block_w = config.asr_block_h = 16;
    config.chunk_pulses = 6;
    config.window_chunks = 2;
    EXPECT_THROW((void)open_stream(srv, config), PreconditionError)
        << region.x0 << "," << region.y0 << " " << region.width << "x"
        << region.height;
  }
}

// --- streaming trace extension -------------------------------------------

TEST(StreamingTrace, RoundTripsThroughJson) {
  service::Trace trace =
      service::make_streaming_trace(2, 3, 32, 8, 16, /*chunk=*/8, /*window=*/2,
                           /*reanchor=*/2);
  service::TraceEntry plain;
  plain.image = 32;
  plain.pulses = 8;
  plain.block = 16;
  plain.tenant = "batch";
  trace.requests.push_back(plain);

  const service::Trace back = service::parse_trace_json(to_json(trace));
  ASSERT_EQ(back.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const auto& a = trace.requests[i];
    const auto& b = back.requests[i];
    EXPECT_EQ(a.image, b.image);
    EXPECT_EQ(a.pulses, b.pulses);
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.scene, b.scene);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.chunk, b.chunk);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.reanchor, b.reanchor);
  }
}

TEST(StreamingTrace, ReplayDrivesSessions) {
  const service::Trace trace =
      service::make_streaming_trace(2, 3, 32, 8, 16, /*chunk=*/8, /*window=*/2,
                           /*reanchor=*/2);

  service::ServiceConfig sc;
  sc.workers = 2;
  service::ImageFormationService srv(sc);
  SubApertureCache cache;
  TraceStreamReplayer replayer(srv, &cache);
  const service::ReplayStats stats =
      service::replay_trace(trace, srv, &replayer);

  EXPECT_EQ(stats.streams, 2u);
  EXPECT_EQ(stats.stream_pushes, 6u);
  EXPECT_EQ(stats.stream_updates, 6u);
  EXPECT_EQ(stats.stream_reanchors, 2u);  // update 3 of each stream
  EXPECT_EQ(stats.stream_dropped, 0u);
  EXPECT_EQ(stats.submitted, 0u);
}

TEST(StreamingTrace, ReplayWithoutHandlerThrows) {
  const service::Trace trace =
      service::make_streaming_trace(1, 1, 32, 8, 16, 8, 2, 0);
  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);
  EXPECT_THROW(service::replay_trace(trace, srv), PreconditionError);
}

}  // namespace
}  // namespace sarbp::streaming
