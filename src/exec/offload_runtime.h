// Offload runtime (paper §4.1/§5.3): partitions each image across the host
// CPU and the attached coprocessor models, overlaps the (modeled) PCIe
// transfers with compute via asynchronous staging, and adapts the work
// split "based on the execution time ratio observed with the first few
// images".
//
// The split is an exec::BackendSet, so each executor's rows, simulated
// time and observed rate come from the same §5.3 tracker the service's
// tile backends use. The arithmetic for every executor physically runs on
// this host (DESIGN.md §2). sarbp_offload keeps the device model and the
// transfer engine; this BackendSet client lives in sarbp_exec above it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "backprojection/backprojector.h"
#include "common/grid2d.h"
#include "exec/tile_backend.h"
#include "geometry/grid.h"
#include "offload/device.h"
#include "offload/transfer.h"
#include "sim/phase_history.h"

namespace sarbp::offload {

struct OffloadConfig {
  DeviceSpec host = xeon_e5_2670_dual();
  std::vector<DeviceSpec> coprocessors;
  /// Overlap PCIe transfers with compute (double buffering). When false,
  /// transfer time adds to the critical path — the ablation case.
  bool overlap_transfers = true;
  /// Include the host CPU as a compute executor. When false, everything is
  /// offloaded (Table 3's "1 Xeon Phi" row).
  bool use_host_compute = true;
  /// Exponential-moving-average weight for the observed-rate tracker.
  double rate_smoothing = 0.5;
};

/// Per-frame accounting.
struct OffloadReport {
  double wall_seconds = 0.0;      ///< simulated frame latency
  double transfer_seconds = 0.0;  ///< modeled PCIe time (max over devices)
  /// Wall time the compute thread spent *waiting* on the asynchronous
  /// staging copy after its own work finished — ~0 when overlap succeeds.
  double staging_wait_seconds = 0.0;
  std::vector<double> executor_seconds;  ///< simulated per-executor compute
  std::vector<double> split;             ///< row fraction per executor
  double backprojections = 0.0;

  [[nodiscard]] double throughput_bp_per_s() const {
    return wall_seconds > 0 ? backprojections / wall_seconds : 0.0;
  }
};

class OffloadRuntime {
 public:
  OffloadRuntime(const geometry::ImageGrid& grid,
                 bp::BackprojectOptions bp_options, OffloadConfig config);

  /// Backprojects one pulse batch into `out` (real arithmetic, full image)
  /// and returns the simulated-time report. Successive calls refine the
  /// work split from observed execution-time ratios. An executor whose
  /// rows round to zero is not observed that frame; until every executor
  /// has been observed, the split stays on the capability priors.
  OffloadReport form_image(const sim::PhaseHistory& history,
                           Grid2D<CFloat>& out);

  [[nodiscard]] int executors() const { return backends_.size(); }
  [[nodiscard]] std::vector<double> current_split() const {
    return backends_.split();
  }

 private:
  geometry::ImageGrid grid_;
  bp::BackprojectOptions bp_options_;
  OffloadConfig config_;
  /// One backend per executor: the host first (if used), then each
  /// coprocessor in config order.
  exec::BackendSet backends_;
  /// Real staging machinery (the offload_transfer/offload_wait analogue):
  /// pulse batches are copied into the device staging buffer on an I/O
  /// thread while the host executor computes.
  std::unique_ptr<AsyncTransferEngine> staging_engine_;
  std::vector<std::byte> staging_buffer_;
};

}  // namespace sarbp::offload
