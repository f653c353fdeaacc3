// Shared helpers for the reproduction benches: command-line options,
// table printing, and the standard calibrated scenario (DESIGN.md §5).
//
// Every bench accepts --ix/--iy/--pulses/--frames style overrides so the
// paper-scale configurations can be run on bigger machines; the defaults
// are scaled to finish in seconds on one core. Shapes (ratios, who-wins,
// crossovers) are the reproduction target, not absolute wall-clock.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "backprojection/backprojector.h"
#include "common/cpu.h"
#include "common/json.h"
#include "common/rng.h"
#include "geometry/grid.h"
#include "geometry/trajectory.h"
#include "sim/collector.h"
#include "sim/scene.h"

namespace sarbp::bench {

/// Minimal --key value / --key=value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      // Normalize "--key=value" into separate key and value tokens so every
      // accessor handles both spellings.
      const std::string token = argv[i];
      const std::size_t eq = token.find('=');
      if (token.rfind("--", 0) == 0 && eq != std::string::npos) {
        tokens_.push_back(token.substr(0, eq));
        tokens_.push_back(token.substr(eq + 1));
      } else {
        tokens_.push_back(token);
      }
    }
  }

  [[nodiscard]] long get(const std::string& key, long fallback) const {
    const auto v = gets(key);
    return v.empty() ? fallback : std::atol(v.c_str());
  }

  [[nodiscard]] double getf(const std::string& key, double fallback) const {
    const auto v = gets(key);
    return v.empty() ? fallback : std::atof(v.c_str());
  }

  /// String-valued option; empty when absent.
  [[nodiscard]] std::string gets(const std::string& key) const {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i] == "--" + key) return tokens_[i + 1];
    }
    return {};
  }

  [[nodiscard]] bool has(const std::string& flag) const {
    for (const auto& token : tokens_) {
      if (token == "--" + flag) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> tokens_;
};

/// The calibrated X-band scenario every bench draws from: 40 km standoff,
/// 0.5 m pixels (matched to the 300 MHz chirp), dense random-fidelity pulse
/// data unless a bench needs reflector structure.
struct BenchScenario {
  geometry::ImageGrid grid;
  std::vector<geometry::PulsePose> poses;
  sim::PhaseHistory history;
};

/// `oversample` multiplies the ADC rate: more range bins per metre, i.e.
/// larger In arrays and wider gather spreads (the paper's 81K-sample pulses
/// are far bigger than any cache level).
inline BenchScenario make_bench_scenario(
    Index image, Index pulses,
    sim::CollectionFidelity fidelity = sim::CollectionFidelity::kRandom,
    std::uint64_t seed = 20120615, double oversample = 1.0) {
  Rng rng(seed);
  geometry::ImageGrid grid(image, image, 0.5);
  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.02;
  orbit.prf_hz = 500.0;
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.05;
  auto poses = geometry::circular_orbit(orbit, errors, pulses, rng);

  sim::ClusterSceneParams scene_params;
  scene_params.clusters = 4;
  const auto scene = sim::make_cluster_scene(grid, scene_params, rng);
  sim::CollectorParams collector;
  collector.fidelity = fidelity;
  collector.chirp.sample_rate_hz *= oversample;
  auto history = sim::collect(collector, grid, scene, poses, rng);
  return BenchScenario{grid, std::move(poses), std::move(history)};
}

// ------------------------------------------------------ repetition/json ---
//
// Every bench that reports timings accepts:
//   --warmup=N   discarded runs before measurement (default 0)
//   --repeat=N   measured runs per configuration (default 1)
//   --json=PATH  machine-readable results: one `sarbp.bench.v1` record per
//                file, carrying median + IQR over the repeat samples.

struct RepeatSpec {
  int warmup = 0;
  int repeat = 1;
  std::string json_path;  ///< empty = no JSON output
};

inline RepeatSpec repeat_spec(const Args& args) {
  RepeatSpec spec;
  spec.warmup = static_cast<int>(args.get("warmup", 0));
  spec.repeat = std::max(1, static_cast<int>(args.get("repeat", 1)));
  spec.json_path = args.gets("json");
  return spec;
}

/// Robust summary of repeat samples. With one sample median == q1 == q3.
struct SampleStats {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  [[nodiscard]] double iqr() const { return q3 - q1; }
};

inline SampleStats summarize(std::vector<double> samples) {
  SampleStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  // Linear-interpolation quantile (the common "type 7" estimator).
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  stats.q1 = quantile(0.25);
  stats.median = quantile(0.5);
  stats.q3 = quantile(0.75);
  return stats;
}

/// Runs `sample` warmup+repeat times (discarding the warmups) and returns
/// the summary over the measured samples. `sample` returns the metric for
/// one run (seconds, jobs/s, ...).
inline SampleStats run_repeated(const RepeatSpec& spec,
                                const std::function<double()>& sample) {
  for (int i = 0; i < spec.warmup; ++i) (void)sample();
  std::vector<double> measured;
  measured.reserve(static_cast<std::size_t>(spec.repeat));
  for (int i = 0; i < spec.repeat; ++i) measured.push_back(sample());
  return summarize(std::move(measured));
}

/// Accumulates bench results and writes one schema-versioned JSON document:
///   {"schema": "sarbp.bench.v1", "bench": ..., "host": ...,
///    "warmup": N, "repeat": N,
///    "results": [{"name": ..., "params": {...}, "unit": ...,
///                 "median": ..., "q1": ..., "q3": ..., "iqr": ...}, ...]}
/// No-op when the spec carries no --json path.
class JsonReporter {
 public:
  JsonReporter(std::string bench_name, RepeatSpec spec)
      : bench_name_(std::move(bench_name)), spec_(std::move(spec)) {}

  ~JsonReporter() { write(); }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  void add(const std::string& name,
           std::vector<std::pair<std::string, std::string>> params,
           const std::string& unit, const SampleStats& stats) {
    rows_.push_back(Row{name, std::move(params), unit, stats});
  }

  /// Writes the document (idempotent; implied by the destructor).
  void write() {
    if (spec_.json_path.empty() || written_) return;
    written_ = true;
    std::string out = "{\n  \"schema\": \"sarbp.bench.v1\",\n  \"bench\": ";
    append_json_string(out, bench_name_);
    out += ",\n  \"host\": ";
    append_json_string(out, cpu_summary());
    out += ",\n  \"warmup\": " + std::to_string(spec_.warmup);
    out += ",\n  \"repeat\": " + std::to_string(spec_.repeat);
    out += ",\n  \"results\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out += i == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ";
      append_json_string(out, row.name);
      out += ", \"params\": {";
      for (std::size_t j = 0; j < row.params.size(); ++j) {
        if (j > 0) out += ", ";
        append_json_string(out, row.params[j].first);
        out += ": ";
        append_json_string(out, row.params[j].second);
      }
      out += "}, \"unit\": ";
      append_json_string(out, row.unit);
      for (const auto& [key, v] :
           {std::pair<const char*, double>{"median", row.stats.median},
            {"q1", row.stats.q1},
            {"q3", row.stats.q3},
            {"iqr", row.stats.iqr()}}) {
        out += ", \"";
        out += key;
        out += "\": ";
        append_json_number(out, v);
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    std::FILE* f = std::fopen(spec_.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json: cannot open %s\n", spec_.json_path.c_str());
      return;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
    std::printf("json: wrote %zu result(s) to %s\n", rows_.size(),
                spec_.json_path.c_str());
  }

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
    std::string unit;
    SampleStats stats;
  };

  std::string bench_name_;
  RepeatSpec spec_;
  std::vector<Row> rows_;
  bool written_ = false;
};

inline void print_header(const char* title) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("host: %s\n", cpu_summary().c_str());
  std::printf(
      "================================================================\n");
}

inline void print_rule() {
  std::printf(
      "----------------------------------------------------------------\n");
}

}  // namespace sarbp::bench
