// Offload runtime (paper §4.1/§5.3): splits each image between the host
// CPU and the attached coprocessor models, overlaps the (modeled) PCIe
// transfers with compute via asynchronous staging, and adapts the work
// split "based on the execution time ratio observed with the first few
// images".
//
// A frame is the batch driver's block group (exec::make_backprojection_group)
// on an exec::Backprojector's pool, routed by an exec::BackendSet: each
// executor's share is whole ASR blocks by the §5.3 split the service's tile
// backends use, so an offloaded image is the batch driver's bytes. Every
// executor's arithmetic runs on this host (DESIGN.md §2). sarbp_offload
// keeps the device model and the transfer engine; this BackendSet client
// lives in sarbp_exec above it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "backprojection/backprojector.h"
#include "common/grid2d.h"
#include "exec/formation_tasks.h"
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
};

/// Per-frame accounting.
struct OffloadReport {
  double wall_seconds = 0.0;      ///< simulated frame latency
  double transfer_seconds = 0.0;  ///< modeled PCIe time (max over devices)
  /// Wall time the calling thread spent *waiting* on the asynchronous
  /// staging copy after the frame's blocks finished — ~0 when overlap
  /// succeeds.
  double staging_wait_seconds = 0.0;
  /// Simulated per-executor compute: the sum of its tasks' simulated
  /// seconds, as if one device ran its blocks in turn.
  std::vector<double> executor_seconds;
  std::vector<double> split;  ///< work fraction per executor
  double backprojections = 0.0;

  [[nodiscard]] double throughput_bp_per_s() const {
    return wall_seconds > 0 ? backprojections / wall_seconds : 0.0;
  }
};

class OffloadRuntime {
 public:
  /// Starts the pool of `bp_options.threads` workers (exec::Backprojector).
  OffloadRuntime(const geometry::ImageGrid& grid,
                 bp::BackprojectOptions bp_options, OffloadConfig config);

  /// Backprojects one pulse batch into `out` (+=, real arithmetic, full
  /// image) and returns the simulated-time report. Successive calls refine
  /// the work split from observed execution-time ratios. An executor whose
  /// share rounds to no block is not observed that frame; until every
  /// executor has been observed, the split stays on the capability priors.
  /// Throws PreconditionError when a block's sweep throws.
  OffloadReport form_image(const sim::PhaseHistory& history,
                           Grid2D<CFloat>& out);

  [[nodiscard]] int executors() const { return backends_->size(); }
  [[nodiscard]] std::vector<double> current_split() const {
    return backends_->split();
  }

 private:
  OffloadConfig config_;
  /// The grid, the options and the pool every frame's blocks run on.
  exec::Backprojector bp_;
  /// One backend per executor: the host first (if used), then each
  /// coprocessor in config order.
  std::shared_ptr<exec::BackendSet> backends_;
  /// Real staging machinery (the offload_transfer/offload_wait analogue):
  /// pulse batches are copied into the device staging buffer on an I/O
  /// thread while the executors compute.
  std::unique_ptr<AsyncTransferEngine> staging_engine_;
  std::vector<std::byte> staging_buffer_;
};

}  // namespace sarbp::offload
