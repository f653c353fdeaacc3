// Schema-versioned JSON export of a metrics registry, plus the matching
// parser so dashboards/tests can validate that the schema round-trips.
//
// Layout (schema "sarbp.metrics.v1"):
//   {
//     "schema": "sarbp.metrics.v1",
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": {"value": <int>, "max": <int>}, ... },
//     "histograms": { "<name>": {"count": <uint>, "sum": <double>,
//                                "min": .., "max": .., "p50": ..,
//                                "p90": .., "p99": ..}, ... }
//   }
#pragma once

#include <string>

#include "obs/metrics.h"

namespace sarbp::obs {

/// Serializes a snapshot; doubles are printed with enough digits to
/// round-trip bit-exactly through parse_snapshot_json.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Convenience: snapshot + serialize.
[[nodiscard]] std::string export_json(const Registry& reg);

/// Parses a "sarbp.metrics.v1" document produced by to_json with the
/// strict reader of common/json_reader.h: counters, gauges and histogram
/// counts must be integers in range, and repeated keys or text after the
/// document are errors. Throws PreconditionError on malformed input or a
/// schema mismatch.
[[nodiscard]] MetricsSnapshot parse_snapshot_json(const std::string& json);

/// Writes export_json(reg) to `path`; throws PreconditionError on I/O error.
void write_json_file(const Registry& reg, const std::string& path);

}  // namespace sarbp::obs
