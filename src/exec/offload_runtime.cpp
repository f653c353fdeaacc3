#include "exec/offload_runtime.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace sarbp::offload {
namespace {

/// Executor order: the host first (when it computes; the identity clock,
/// prior 1), then each coprocessor as a simulated-offload backend against
/// the host model, named by position so two cards of one model keep
/// separate backend.<name>.* series.
std::vector<exec::BackendSpec> backend_specs(const OffloadConfig& config) {
  std::vector<exec::BackendSpec> specs;
  if (config.use_host_compute) {
    config.host.validate();
    specs.push_back({.name = "offload-host"});
  }
  for (std::size_t k = 0; k < config.coprocessors.size(); ++k) {
    const DeviceSpec& device = config.coprocessors[k];
    ensure(!device.is_host, "OffloadRuntime: coprocessor marked as host");
    specs.push_back(
        {.kind = exec::BackendSpec::Kind::kOffloadSim,
         .name = "offload-" + device.name + "-" + std::to_string(k),
         .device = device,
         .host_model = config.use_host_compute ? config.host
                                               : xeon_e5_2670_dual()});
  }
  ensure(!specs.empty(), "OffloadRuntime: no executors configured");
  return specs;
}

}  // namespace

OffloadRuntime::OffloadRuntime(const geometry::ImageGrid& grid,
                               bp::BackprojectOptions bp_options,
                               OffloadConfig config)
    : config_(std::move(config)),
      bp_(grid, bp_options),
      backends_(std::make_shared<exec::BackendSet>(
          backend_specs(config_), exec::kRateSmoothing, nullptr)) {
  if (!config_.coprocessors.empty()) {
    staging_engine_ = std::make_unique<AsyncTransferEngine>(
        config_.coprocessors.front().pcie_gbps);
  }
}

OffloadReport OffloadRuntime::form_image(const sim::PhaseHistory& history,
                                         Grid2D<CFloat>& out) {
  const geometry::ImageGrid& grid = bp_.grid();
  const auto executors = static_cast<std::size_t>(backends_->size());
  OffloadReport report;
  report.split = backends_->split();
  report.backprojections = static_cast<double>(grid.width()) *
                           static_cast<double>(grid.height()) *
                           static_cast<double>(history.num_pulses());
  // Each executor's share of the frame is what the group's one record of
  // it adds to its totals; the group cuts the shares by the split
  // reported above.
  std::vector<exec::TileBackend::Totals> shares(executors);
  for (std::size_t i = 0; i < executors; ++i) {
    shares[i] = backends_->backend(static_cast<int>(i)).totals();
  }
  const exec::GroupPtr group = exec::make_backprojection_group(
      history, grid, bp_.options(), out, backends_);

  // Kick off the real asynchronous staging copy of the pulse batch (the
  // #pragma offload_transfer analogue): the I/O thread memcpys while the
  // pool computes; we wait (and time the wait) at the end.
  TransferHandle staging;
  if (staging_engine_ != nullptr) {
    staging_buffer_.resize(history.payload_bytes());
    staging = staging_engine_->submit(
        std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(history.pulse(0).data()),
            history.payload_bytes()),
        staging_buffer_);
  }

  bp_.pool().run(group);

  if (staging.valid()) {
    Timer wait_timer;
    (void)staging.wait();
    report.staging_wait_seconds = wait_timer.seconds();
  }
  if (group->aborted()) {
    throw PreconditionError("OffloadRuntime::form_image: " + group->error());
  }
  for (std::size_t i = 0; i < executors; ++i) {
    const exec::TileBackend::Totals after =
        backends_->backend(static_cast<int>(i)).totals();
    shares[i] = {after.backprojections - shares[i].backprojections,
                 after.simulated_seconds - shares[i].simulated_seconds};
    report.executor_seconds.push_back(shares[i].simulated_seconds);
  }

  // PCIe model: each coprocessor receives the full pulse batch and returns
  // its blocks' pixels (§5.3's ~150 MB / 6 GB/s -> 0.03 s for the 3K case).
  const std::size_t first_coproc = config_.use_host_compute ? 1 : 0;
  double worst_transfer = 0.0;
  for (std::size_t k = 0; k < config_.coprocessors.size(); ++k) {
    const std::size_t i = first_coproc + k;
    const double in_bytes = static_cast<double>(history.payload_bytes());
    const double out_bytes = shares[i].backprojections * sizeof(CFloat) /
                             std::max<double>(1.0, history.num_pulses());
    worst_transfer = std::max(
        worst_transfer, modeled_transfer_seconds(config_.coprocessors[k],
                                                 in_bytes + out_bytes));
  }
  report.transfer_seconds = worst_transfer;

  const double compute_wall = *std::max_element(
      report.executor_seconds.begin(), report.executor_seconds.end());
  report.wall_seconds = config_.overlap_transfers
                            ? std::max(compute_wall, worst_transfer)
                            : compute_wall + worst_transfer;

  // Transfer/overlap telemetry: how much of the PCIe time the double
  // buffering actually hid, and how long the calling thread stalled on the
  // asynchronous staging copy.
  auto& reg = obs::registry();
  reg.counter("offload.frames").add();
  reg.gauge("offload.executors").set(static_cast<std::int64_t>(executors));
  reg.histogram("offload.wall_s").record(report.wall_seconds);
  reg.histogram("offload.compute_s").record(compute_wall);
  reg.histogram("offload.transfer_s").record(report.transfer_seconds);
  reg.histogram("offload.staging_wait_s").record(report.staging_wait_seconds);
  if (report.transfer_seconds > 0.0) {
    const double exposed = report.wall_seconds - compute_wall;
    reg.histogram("offload.transfer_hidden_frac")
        .record(1.0 - exposed / report.transfer_seconds);
  }
  return report;
}

}  // namespace sarbp::offload
