#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include "backprojection/kernel.h"
#include "common/cpu.h"
#include "perfbench.h"

namespace perfbench {

std::string host_facts() {
  // Records from different hosts must never be compared: every result
  // carries the facts that decide the kernel and cache behaviour.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const char* isa = sarbp::bp::simd_isa_name(
      sarbp::bp::asr_resolve_isa(sarbp::bp::SimdIsa::kAuto));
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "nproc=%ld isa=%s l2_kib=%ld l3_kib=%ld cpu=[%s]", nproc, isa,
                l2 > 0 ? l2 / 1024 : 0L, l3 > 0 ? l3 / 1024 : 0L,
                sarbp::cpu_summary().c_str());
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0;
  long resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double counter_delta(const sarbp::obs::MetricsSnapshot& before,
                     const sarbp::obs::MetricsSnapshot& after,
                     const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : after.counters) {
    if (!name.ends_with(suffix)) continue;
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    total += static_cast<double>(value - base);
  }
  return total;
}

double histogram_p50(const sarbp::obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0 : it->second.p50;
}

}  // namespace perfbench
