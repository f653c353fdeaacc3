#include "service/trace.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <tuple>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "geometry/grid.h"
#include "geometry/trajectory.h"
#include "sim/collector.h"
#include "sim/scene.h"

namespace sarbp::service {
namespace {

Priority parse_priority(const std::string& name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal") return Priority::kNormal;
  if (name == "low") return Priority::kLow;
  ensure(false, "trace JSON: unknown priority \"" + name + "\"");
  return Priority::kNormal;
}

TraceEntry parse_entry(JsonCursor& cur) {
  TraceEntry entry;
  cur.object([&](const std::string& key) {
    if (key == "ix") {
      entry.image = cur.integer<Index>();
    } else if (key == "pulses") {
      entry.pulses = cur.integer<Index>();
    } else if (key == "block") {
      entry.block = cur.integer<Index>();
    } else if (key == "priority") {
      entry.priority = parse_priority(cur.string());
    } else if (key == "scene") {
      entry.scene = cur.integer<std::uint64_t>();
    } else if (key == "repeat") {
      entry.repeat = cur.integer<int>();
    } else if (key == "delay_ms") {
      entry.delay_ms = cur.number();
    } else if (key == "deadline_ms") {
      entry.deadline_ms = cur.number();
    } else if (key == "tenant") {
      entry.tenant = cur.string();
    } else if (key == "stream") {
      entry.stream = cur.integer<std::uint64_t>();
    } else if (key == "chunk") {
      entry.chunk = cur.integer<Index>();
    } else if (key == "window") {
      entry.window = cur.integer<Index>();
    } else if (key == "reanchor") {
      entry.reanchor = cur.integer<int>();
    } else {
      ensure(false, "trace JSON: unknown request key \"" + key + "\"");
    }
  });
  ensure(entry.image > 0 && entry.pulses > 0 && entry.block > 0 &&
             entry.repeat > 0,
         "trace JSON: request fields must be positive");
  ensure(entry.chunk >= 0 && entry.window >= 0 && entry.reanchor >= 0,
         "trace JSON: streaming fields must be non-negative");
  ensure(entry.stream != 0 ||
             (entry.chunk == 0 && entry.window == 0 && entry.reanchor == 0),
         "trace JSON: chunk/window/reanchor require a nonzero stream");
  return entry;
}

/// Simulated collection for one (scene, image, pulses): a cluster scene on
/// a perturbed circular orbit — small but physically plausible, so ASR bins
/// land in range and plans differ between scene seeds.
sim::PhaseHistory synthesize_collection(std::uint64_t scene, Index image,
                                        Index pulses) {
  Rng rng(scene * 1000003ULL + 17);
  const geometry::ImageGrid grid(image, image, 0.5);
  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.02;
  orbit.prf_hz = 500.0;
  // Distinct scenes look at the arc from different angles, so their pulse
  // geometries (and plan signatures) genuinely differ.
  orbit.start_angle_rad = 0.05 * static_cast<double>(scene % 97);
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.05;
  const auto poses = geometry::circular_orbit(orbit, errors, pulses, rng);

  sim::ClusterSceneParams scene_params;
  scene_params.clusters = 3;
  scene_params.reflectors_per_cluster = 4;
  const auto reflectors = sim::make_cluster_scene(grid, scene_params, rng);

  sim::CollectorParams collector;
  return sim::collect(collector, grid, reflectors, poses, rng);
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(std::llround(
      q * static_cast<double>(sorted.size() - 1)));
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

Trace parse_trace_json(const std::string& json) {
  JsonCursor cur(json, "trace JSON");
  Trace trace;
  bool saw_schema = false;
  cur.object([&](const std::string& key) {
    if (key == "schema") {
      const std::string schema = cur.string();
      ensure(schema == Trace::kSchemaName,
             "trace JSON: schema mismatch (got \"" + schema + "\", want \"" +
                 Trace::kSchemaName + "\")");
      saw_schema = true;
    } else if (key == "requests") {
      cur.expect('[');
      if (!cur.consume(']')) {
        do {
          trace.requests.push_back(parse_entry(cur));
        } while (cur.consume(','));
        cur.expect(']');
      }
    } else {
      ensure(false, "trace JSON: unknown top-level key \"" + key + "\"");
    }
  });
  cur.expect_end();
  ensure(saw_schema, "trace JSON: missing \"schema\"");
  return trace;
}

std::string to_json(const Trace& trace) {
  std::string out = "{\n  \"schema\": \"";
  out += Trace::kSchemaName;
  out += "\",\n  \"requests\": [";
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const auto& e = trace.requests[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"ix\": " + std::to_string(e.image);
    out += ", \"pulses\": " + std::to_string(e.pulses);
    out += ", \"block\": " + std::to_string(e.block);
    out += ", \"priority\": \"";
    out += priority_name(e.priority);
    out += "\", \"scene\": " + std::to_string(e.scene);
    out += ", \"repeat\": " + std::to_string(e.repeat);
    out += ", \"delay_ms\": ";
    append_json_number(out, e.delay_ms);
    out += ", \"deadline_ms\": ";
    append_json_number(out, e.deadline_ms);
    if (!e.tenant.empty()) {
      out += ", \"tenant\": ";
      append_json_string(out, e.tenant);
    }
    if (e.stream != 0) {
      // Emitted only for streaming entries, so pre-extension traces
      // round-trip byte-identically.
      out += ", \"stream\": " + std::to_string(e.stream);
      out += ", \"chunk\": " + std::to_string(e.chunk);
      out += ", \"window\": " + std::to_string(e.window);
      out += ", \"reanchor\": " + std::to_string(e.reanchor);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

Trace make_repeated_scene_trace(int scenes, int repeats, Index image,
                                Index pulses, Index block) {
  ensure(scenes > 0 && repeats > 0,
         "make_repeated_scene_trace: counts must be positive");
  Trace trace;
  static constexpr Priority kCycle[] = {Priority::kHigh, Priority::kNormal,
                                        Priority::kLow};
  int n = 0;
  // Round-robin over scenes so hits interleave with misses, the way a
  // multi-tenant front end interleaves users.
  for (int r = 0; r < repeats; ++r) {
    for (int s = 0; s < scenes; ++s) {
      TraceEntry entry;
      entry.image = image;
      entry.pulses = pulses;
      entry.block = block;
      entry.scene = static_cast<std::uint64_t>(s + 1);
      entry.priority = kCycle[n++ % 3];
      entry.tenant = "tenant-" + std::to_string(s + 1);
      trace.requests.push_back(entry);
    }
  }
  return trace;
}

Trace make_streaming_trace(int streams, int pushes, Index image, Index pulses,
                           Index block, Index chunk, Index window,
                           int reanchor) {
  ensure(streams > 0 && pushes > 0,
         "make_streaming_trace: counts must be positive");
  ensure(chunk > 0 && window > 0 && reanchor >= 0,
         "make_streaming_trace: bad session geometry");
  Trace trace;
  // Round-robin over sessions, the way concurrent collectors interleave.
  for (int p = 0; p < pushes; ++p) {
    for (int s = 0; s < streams; ++s) {
      TraceEntry entry;
      entry.image = image;
      entry.pulses = pulses;
      entry.block = block;
      entry.scene = static_cast<std::uint64_t>(s + 1);
      entry.tenant = "stream-" + std::to_string(s + 1);
      entry.stream = static_cast<std::uint64_t>(s + 1);
      entry.chunk = chunk;
      entry.window = window;
      entry.reanchor = reanchor;
      trace.requests.push_back(entry);
    }
  }
  return trace;
}

ReplayStats replay_trace(const Trace& trace, ImageFormationService& service,
                         StreamReplayer* streams) {
  // One synthesis per distinct collection; requests alias it shared.
  std::map<std::tuple<std::uint64_t, Index, Index>,
           std::shared_ptr<const sim::PhaseHistory>>
      collections;
  for (const auto& entry : trace.requests) {
    ensure(entry.stream == 0 || streams != nullptr,
           "replay_trace: trace has streaming entries but no StreamReplayer");
    const auto key = std::make_tuple(entry.scene, entry.image, entry.pulses);
    if (collections.find(key) == collections.end()) {
      collections[key] = std::make_shared<const sim::PhaseHistory>(
          synthesize_collection(entry.scene, entry.image, entry.pulses));
    }
  }

  ReplayStats stats;
  std::vector<std::shared_ptr<JobHandle>> handles;
  Timer wall;
  for (const auto& entry : trace.requests) {
    for (int r = 0; r < entry.repeat; ++r) {
      if (entry.delay_ms > 0.0) {
        // Open-loop arrival pacing, not a wait for another thread's state.
        // lint: allow(sleep-poll) -- pacing; nothing could notify this wait
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(entry.delay_ms));
      }
      if (entry.stream != 0) {
        streams->ingest(entry, collections[std::make_tuple(
                                 entry.scene, entry.image, entry.pulses)]);
        continue;
      }
      ImageFormationRequest request;
      request.grid = geometry::ImageGrid(entry.image, entry.image, 0.5);
      request.pulses =
          collections[std::make_tuple(entry.scene, entry.image, entry.pulses)];
      request.asr_block_w = request.asr_block_h = entry.block;
      request.priority = entry.priority;
      request.tenant = entry.tenant;
      if (entry.deadline_ms != 0.0) {
        // The trace stores the deadline *relative* to submission, so the
        // absolute point is reconstructed here. A negative offset is a
        // deadline already in the past at submission (replayed faithfully
        // as an immediate expiry), not "no deadline" — only 0 means none.
        request.deadline = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(static_cast<long long>(
                               entry.deadline_ms * 1000.0));
      }
      auto outcome = service.submit(std::move(request));
      if (outcome.admitted()) {
        ++stats.submitted;
        handles.push_back(std::move(outcome.handle));
      } else {
        ++stats.rejected;
      }
    }
  }

  std::vector<double> latencies;
  std::vector<double> hit_latencies;
  std::vector<double> miss_latencies;
  for (const auto& handle : handles) {
    const JobResult& result = handle->wait();
    switch (result.state) {
      case JobState::kDone:
        ++stats.done;
        latencies.push_back(result.latency_seconds);
        // Queue wait excluded: in a burst it follows arrival order, not
        // the cache.
        if (result.plan_cache_hit) {
          hit_latencies.push_back(result.latency_seconds -
                                  result.queue_seconds);
        } else {
          miss_latencies.push_back(result.latency_seconds -
                                   result.queue_seconds);
        }
        break;
      case JobState::kFailed: ++stats.failed; break;
      case JobState::kCancelled: ++stats.cancelled; break;
      case JobState::kExpired: ++stats.expired; break;
      default: break;
    }
  }
  if (streams != nullptr) {
    // Drains every session (updates still in flight complete), so the wall
    // clock covers streaming work just as it covers the handle waits.
    const StreamReplayer::Totals totals = streams->finish();
    stats.streams = totals.streams;
    stats.stream_pushes = totals.pushes;
    stats.stream_updates = totals.updates;
    stats.stream_reanchors = totals.reanchors;
    stats.stream_cache_hits = totals.cache_hits;
    stats.stream_dropped = totals.dropped;
  }
  stats.wall_seconds = wall.seconds();
  if (stats.wall_seconds > 0.0) {
    stats.throughput_jobs_per_s =
        static_cast<double>(stats.done) / stats.wall_seconds;
  }
  std::sort(latencies.begin(), latencies.end());
  stats.latency_p50_s = percentile(latencies, 0.50);
  stats.latency_p90_s = percentile(latencies, 0.90);
  stats.latency_p99_s = percentile(latencies, 0.99);
  stats.plan_hits = hit_latencies.size();
  stats.plan_misses = miss_latencies.size();
  std::sort(hit_latencies.begin(), hit_latencies.end());
  std::sort(miss_latencies.begin(), miss_latencies.end());
  stats.hit_latency_p50_s = percentile(hit_latencies, 0.50);
  stats.miss_latency_p50_s = percentile(miss_latencies, 0.50);
  return stats;
}

}  // namespace sarbp::service
