#include "cluster/distributed.h"

#include <algorithm>
#include <cstring>

#include "cluster/collectives.h"
#include "cluster/comm.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace sarbp::cluster {
namespace {

constexpr int kTagTile = 101;
constexpr int kTagRegion = 102;

struct HistoryShape {
  Index num_pulses;
  Index samples;
  double bin_spacing;
  double wavenumber;
};

}  // namespace

Grid2D<CFloat> distributed_backprojection(int ranks,
                                          const sim::PhaseHistory& history,
                                          const geometry::ImageGrid& grid,
                                          const bp::BackprojectOptions& options,
                                          DistributedReport* report) {
  ensure(ranks >= 1, "distributed_backprojection: need at least one rank");
  Grid2D<CFloat> assembled(grid.width(), grid.height());
  DistributedReport local_report;

  run_cluster(ranks, [&](Communicator& comm) {
    // --- Pulse scatter (broadcast): rank 0 ships shape, metadata, samples.
    std::vector<HistoryShape> shape(1);
    std::vector<sim::PulseMeta> meta;
    std::vector<CFloat> samples;
    if (comm.rank() == 0) {
      shape[0] = {history.num_pulses(), history.samples_per_pulse(),
                  history.bin_spacing(), history.wavenumber()};
      meta.resize(static_cast<std::size_t>(history.num_pulses()));
      for (Index p = 0; p < history.num_pulses(); ++p) {
        meta[static_cast<std::size_t>(p)] = history.meta(p);
      }
      samples.assign(history.pulse(0).data(),
                     history.pulse(0).data() +
                         history.num_pulses() * history.samples_per_pulse());
    }
    Timer scatter_timer;
    broadcast(comm, shape, 0);
    // An empty batch forms an all-zero image. Every rank returns here
    // uniformly (no further communication): a zero-pulse cube partitions
    // as one part ({1,1,1}), which cannot match ranks > 1.
    if (shape[0].num_pulses == 0) return;
    broadcast(comm, meta, 0);
    broadcast(comm, samples, 0);
    if (comm.rank() == 0) {
      obs::registry()
          .histogram("cluster.broadcast_s")
          .record(scatter_timer.seconds());
    }

    // Rebuild the local phase history (ranks other than 0 own a copy, as
    // real MPI ranks would).
    sim::PhaseHistory local(shape[0].num_pulses, shape[0].samples,
                            shape[0].bin_spacing, shape[0].wavenumber);
    for (Index p = 0; p < local.num_pulses(); ++p) {
      local.meta(p) = meta[static_cast<std::size_t>(p)];
      std::memcpy(local.pulse(p).data(),
                  samples.data() + p * local.samples_per_pulse(),
                  static_cast<std::size_t>(local.samples_per_pulse()) *
                      sizeof(CFloat));
    }

    // --- MPI-level partition: image dimensions first (§4.2).
    const bp::CubeShape cube{local.num_pulses(), grid.width(), grid.height()};
    const bp::PartitionChoice choice = bp::choose_partition(
        cube, ranks, options.min_region_edge);
    const auto parts = bp::partition_cube(cube, choice);
    ensure(static_cast<int>(parts.size()) == ranks,
           "distributed_backprojection: partition/rank mismatch");
    const bp::CubePart& mine = parts[static_cast<std::size_t>(comm.rank())];

    // --- Local backprojection over the assigned cuboid. Thread CPU time:
    // ranks time-share this host's cores, so wall time would count the
    // other ranks' slices too.
    ThreadCpuTimer timer;
    Grid2D<CFloat> scratch(grid.width(), grid.height());
    bp::add_pulses_region(local, grid, options, mine.region, mine.pulse_begin,
                          mine.pulse_end, scratch);
    const double compute_s = timer.seconds();
    obs::registry().histogram("cluster.rank_compute_s").record(compute_s);

    // --- Gather: pack the owned region and ship it to rank 0, which
    // accumulates (pulse-split parts overlap in image space and must sum).
    std::vector<CFloat> tile(
        static_cast<std::size_t>(mine.region.pixels()));
    for (Index y = 0; y < mine.region.height; ++y) {
      std::memcpy(tile.data() + y * mine.region.width,
                  scratch.row(mine.region.y0 + y).data() + mine.region.x0,
                  static_cast<std::size_t>(mine.region.width) * sizeof(CFloat));
    }
    const Index region_desc[4] = {mine.region.x0, mine.region.y0,
                                  mine.region.width, mine.region.height};
    if (comm.rank() == 0) {
      obs::ScopedSpan gather_span(
          obs::registry().histogram("cluster.gather_s"));
      // Own tile first.
      for (Index y = 0; y < mine.region.height; ++y) {
        for (Index x = 0; x < mine.region.width; ++x) {
          assembled.at(mine.region.x0 + x, mine.region.y0 + y) +=
              tile[static_cast<std::size_t>(y * mine.region.width + x)];
        }
      }
      double gather_bytes = 0.0;
      for (int r = 1; r < ranks; ++r) {
        const auto desc = comm.recv_vec<Index>(r, kTagRegion);
        const auto data = comm.recv_vec<CFloat>(r, kTagTile);
        gather_bytes += static_cast<double>(data.size()) * sizeof(CFloat);
        const Region region{desc[0], desc[1], desc[2], desc[3]};
        ensure(data.size() == static_cast<std::size_t>(region.pixels()),
               "distributed_backprojection: tile size mismatch");
        for (Index y = 0; y < region.height; ++y) {
          for (Index x = 0; x < region.width; ++x) {
            assembled.at(region.x0 + x, region.y0 + y) +=
                data[static_cast<std::size_t>(y * region.width + x)];
          }
        }
      }
      local_report.gather_bytes = gather_bytes;
      local_report.broadcast_bytes =
          static_cast<double>(samples.size() * sizeof(CFloat) +
                              meta.size() * sizeof(sim::PulseMeta)) *
          static_cast<double>(ranks - 1);
    } else {
      comm.send_vec<Index>(0, kTagRegion, std::span<const Index>(region_desc, 4));
      comm.send_vec<CFloat>(0, kTagTile, std::span<const CFloat>(tile));
    }

    // Critical-path compute time across ranks.
    const double times[1] = {compute_s};
    const auto all_times =
        gather<double>(comm, std::span<const double>(times, 1), 0);
    if (comm.rank() == 0) {
      local_report.max_rank_compute_s =
          *std::max_element(all_times.begin(), all_times.end());
    }
  });

  if (report != nullptr) *report = local_report;
  return assembled;
}

}  // namespace sarbp::cluster
