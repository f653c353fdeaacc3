// In-memory request spans for the benchmark's traced pass: one root span
// per request, child spans synthesised from the stamps the program already
// exposes (JobResult, Snapshot), and separate spans around the direct layer
// probes. Nothing is written while the pass runs; the log is written out as
// Chrome trace-event JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;       ///< 1-based, unique within the log
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< shared by one request's spans; 0 = probe
  double start_s = 0.0;       ///< seconds since the log was created
  double dur_s = 0.0;
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : epoch_(Clock::now()) {}

  /// Records one span and returns its id, the `parent` of its children.
  std::uint64_t add(std::string name, std::uint64_t request,
                    std::uint64_t parent, Clock::time_point start,
                    double dur_s);

  /// Self time of every span (its duration minus the part its children
  /// cover), grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_times() const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the log as Chrome trace-event JSON (chrome://tracing or
  /// Perfetto), with `host` in its metadata. False if the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& host) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
