// Request traces for the job service: a small JSON schema describing a
// stream of image-formation requests, a parser/serializer for it, and a
// replayer that synthesizes the referenced collections, submits against a
// live service with the recorded pacing, and reports throughput/latency.
//
// Trace schema ("sarbp.trace.v1"):
//   {
//     "schema": "sarbp.trace.v1",
//     "requests": [
//       { "ix": 96, "pulses": 48, "block": 32, "priority": "high",
//         "scene": 1, "repeat": 4, "delay_ms": 0.0, "deadline_ms": 0.0,
//         "tenant": "alpha" },
//       ...
//     ]
//   }
// `scene` seeds the simulated collection geometry: entries sharing
// (scene, ix, pulses) reuse the same phase history, which is exactly the
// repeated-scene case the plan cache exists for. `repeat` expands one
// entry into that many consecutive submissions. `deadline_ms` is the
// completion deadline *relative to submission*: 0 means no deadline, and a
// negative value is a deadline already past at submission (the job expires
// immediately — replayed as recorded, not dropped). `delay_ms` is the
// inter-arrival gap before each submission.
//
// Streaming extension (schema-compatible: the fields are optional and a
// v1 reader that rejects unknown keys only sees them in traces that use
// them): a request with a nonzero `stream` is a *push* into the
// sliding-aperture streaming session with that id instead of a one-shot
// formation job. The first entry of a stream fixes the session's
// configuration — `ix`/`block` its geometry, `chunk` the sub-aperture
// chunk size in pulses, `window` the aperture width in chunks, `reanchor`
// the re-anchor cadence in updates, and `priority`/`tenant`/`deadline_ms`
// the per-update service parameters. Each entry then pushes `pulses`
// pulses of its `scene`'s collection (`repeat`/`delay_ms` pace the pushes
// exactly like submissions). The service-layer replayer drives streaming
// entries through a StreamReplayer so this module needs no dependency on
// the streaming library; see streaming/trace_replay.h.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "sim/phase_history.h"

namespace sarbp::service {

struct TraceEntry {
  Index image = 96;        ///< square grid edge ("ix")
  Index pulses = 48;
  Index block = 32;        ///< ASR block edge
  Priority priority = Priority::kNormal;
  std::uint64_t scene = 1; ///< collection-geometry seed
  int repeat = 1;
  double delay_ms = 0.0;
  double deadline_ms = 0.0;
  std::string tenant;
  /// Nonzero marks a streaming push: the sliding-aperture session id this
  /// entry feeds (see the schema comment above). 0 = a formation request.
  std::uint64_t stream = 0;
  Index chunk = 0;   ///< stream sessions: sub-aperture chunk, pulses
  Index window = 0;  ///< stream sessions: aperture width, chunks
  int reanchor = 0;  ///< stream sessions: re-anchor cadence, updates
};

struct Trace {
  static constexpr const char* kSchemaName = "sarbp.trace.v1";
  std::vector<TraceEntry> requests;
};

/// Parses a "sarbp.trace.v1" document. Throws PreconditionError on
/// malformed input, unknown keys, or a schema mismatch.
[[nodiscard]] Trace parse_trace_json(const std::string& json);

/// Serializes a trace; round-trips through parse_trace_json.
[[nodiscard]] std::string to_json(const Trace& trace);

/// Canonical repeated-scene workload: `scenes` distinct collection
/// geometries, each requested `repeats` times, interleaved round-robin so
/// cache hits interleave with misses; priorities cycle high/normal/low.
[[nodiscard]] Trace make_repeated_scene_trace(int scenes, int repeats,
                                              Index image, Index pulses,
                                              Index block);

/// Canonical streaming workload: `streams` concurrent sessions over
/// distinct scenes, each receiving `pushes` pushes of `pulses` pulses,
/// interleaved round-robin.
[[nodiscard]] Trace make_streaming_trace(int streams, int pushes, Index image,
                                         Index pulses, Index block,
                                         Index chunk, Index window,
                                         int reanchor);

struct ReplayStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t expired = 0;
  double wall_seconds = 0.0;
  double throughput_jobs_per_s = 0.0;  ///< completed jobs / wall
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  /// Median dequeue-to-delivery latency of the completed jobs whose plan
  /// was a cache hit, and of those that missed — the plan cache's value,
  /// whichever layer a miss pays its table build in.
  double hit_latency_p50_s = 0.0;
  double miss_latency_p50_s = 0.0;
  std::size_t plan_hits = 0;
  std::size_t plan_misses = 0;
  /// Of plan_misses, the unkept ones (swept on the fly, no plan built);
  /// the rest were kept misses that built and inserted their plan.
  std::size_t plan_unkept_misses = 0;
  // Streaming entries (zero when the trace has none).
  std::size_t streams = 0;            ///< sessions opened
  std::size_t stream_pushes = 0;      ///< pushes delivered
  std::size_t stream_updates = 0;     ///< incremental updates completed
  std::size_t stream_reanchors = 0;   ///< of which full re-anchors
  std::size_t stream_cache_hits = 0;  ///< sub-aperture cache hits
  std::size_t stream_dropped = 0;     ///< updates failed/cancelled/expired/rejected
};

/// Sink the replayer drives for streaming entries, so this module needs no
/// dependency on the streaming library (which depends on this one). The
/// streaming implementation is streaming::TraceStreamReplayer. ingest() is
/// called once per expanded repetition, after the entry's delay; finish()
/// once after the last trace submission — it must drain the sessions and
/// report the totals folded into ReplayStats.
class StreamReplayer {
 public:
  virtual ~StreamReplayer() = default;

  struct Totals {
    std::size_t streams = 0;
    std::size_t pushes = 0;
    std::size_t updates = 0;
    std::size_t reanchors = 0;
    std::size_t cache_hits = 0;
    std::size_t dropped = 0;
  };

  virtual void ingest(const TraceEntry& entry,
                    std::shared_ptr<const sim::PhaseHistory> pulses) = 0;
  virtual Totals finish() = 0;
};

/// Simulates each distinct (scene, image, pulses) collection once, then
/// replays the trace against `service` with the recorded pacing and blocks
/// until every submitted job is terminal. Rejected submissions are counted,
/// not retried. Streaming entries are routed to `streams`; a trace that
/// contains any while `streams` is null throws PreconditionError.
ReplayStats replay_trace(const Trace& trace, ImageFormationService& service,
                         StreamReplayer* streams = nullptr);

}  // namespace sarbp::service
