// Wall-clock timing: the monotonic `Timer` behind the service's and
// shard ranks' job stamps, the §5.3 backend split's rates, Fig. 7's
// breakdown and the benches, and `SectionTimes` for the pipeline's
// per-stage totals. Every reading is wall time, so threads that share
// cores count each other's slices.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>

namespace sarbp {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates named time sections; the pipeline's per-stage totals
/// (Fig. 4) are one.
class SectionTimes {
 public:
  void add(const std::string& name, double seconds) { times_[name] += seconds; }

  [[nodiscard]] double get(const std::string& name) const {
    auto it = times_.find(name);
    return it == times_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (const auto& [name, secs] : times_) t += secs;
    return t;
  }

  [[nodiscard]] const std::map<std::string, double>& sections() const {
    return times_;
  }

  void clear() { times_.clear(); }

 private:
  std::map<std::string, double> times_;
};

/// RAII helper adding the scope's duration to a SectionTimes entry.
class ScopedSection {
 public:
  ScopedSection(SectionTimes& sink, std::string name)
      : sink_(sink), name_(std::move(name)) {}
  ScopedSection(const ScopedSection&) = delete;
  ScopedSection& operator=(const ScopedSection&) = delete;
  ~ScopedSection() { sink_.add(name_, timer_.seconds()); }

 private:
  SectionTimes& sink_;
  std::string name_;
  Timer timer_;
};

}  // namespace sarbp
