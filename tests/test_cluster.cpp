// Interconnect model tests: the 3D-torus hop and bisection scaling, the
// MPI and disk timing helpers and the per-node communication volumes that
// the Table 5 projection (src/perfmodel) and examples/distributed_imaging
// use. The sharded service's images are checked against the local service
// in test_cluster_service.cpp.
#include <gtest/gtest.h>

#include "cluster/torus_model.h"

namespace sarbp::cluster {
namespace {

TEST(Torus, HopAndBisectionScaling) {
  InterconnectModel model;
  // 64-node torus: k = 4, average hops = 3 * 4/4 = 3.
  EXPECT_NEAR(model.average_hops(64), 3.0, 1e-9);
  // Bisection: 2 * k^2 * 2 GB/s = 64 GB/s.
  EXPECT_NEAR(model.bisection_gbps(64), 64.0, 1e-9);
  EXPECT_GT(model.average_hops(512), model.average_hops(64));
}

TEST(Torus, TimingHelpers) {
  InterconnectModel model;
  EXPECT_NEAR(model.mpi_seconds(2e9), 1.0, 1e-12);
  EXPECT_NEAR(model.disk_seconds(200e6), 1.0, 1e-12);
}

TEST(Torus, CommunicationVolumesScale) {
  const auto one = communication_volumes(1, 4096, 2809, 6000, 31, 25, 25);
  const auto sixteen = communication_volumes(16, 4096, 2809, 6000, 31, 25, 25);
  // Pulse scatter and disk recording shrink with the per-node pulse share;
  // boundaries shrink with the tile edge; image exchange with the slice.
  EXPECT_NEAR(one.pulse_scatter_bytes / 16.0, sixteen.pulse_scatter_bytes, 1.0);
  EXPECT_GT(one.boundary_bytes, sixteen.boundary_bytes);
  EXPECT_NEAR(one.disk_bytes / 16.0, sixteen.disk_bytes, 1.0);
  EXPECT_NEAR(one.image_exchange_bytes / 16.0, sixteen.image_exchange_bytes,
              1.0);
}

TEST(Torus, PulseDistributionMatchesPaperQuote) {
  // §4.1/Fig. 4: distributing the input pulses takes ~9 ms at 16 nodes
  // (13K image, S = 19K, N = 2809) over 2 GB/s MPI.
  InterconnectModel model;
  const auto v = communication_volumes(16, 13000, 2809, 19000, 31, 25, 25);
  EXPECT_NEAR(1e3 * model.mpi_seconds(v.pulse_scatter_bytes), 9.0, 6.0);
}

}  // namespace
}  // namespace sarbp::cluster
