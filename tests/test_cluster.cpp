// Cluster-substrate tests: point-to-point messaging, barrier semantics,
// abort propagation, the shard pool's front end, halo exchange on rank
// grids and the torus model. The sharded service's images are checked
// against the local service in test_cluster_service.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "cluster/comm.h"
#include "cluster/halo.h"
#include "cluster/shard.h"
#include "cluster/torus_model.h"

namespace sarbp::cluster {
namespace {

TEST(Comm, PointToPointDelivery) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 7, 42);
      EXPECT_EQ(comm.recv_value<int>(1, 8), 43);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 42);
      comm.send_value<int>(0, 8, 43);
    }
  });
}

TEST(Comm, TagAndSourceMatching) {
  // Messages with different tags must not cross; order within a (source,
  // tag) channel is FIFO.
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 100);
      comm.send_value<int>(1, 2, 200);
      comm.send_value<int>(1, 1, 101);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);  // tag 2 first
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 101);
    }
  });
}

TEST(Comm, VectorPayloadsRoundTrip) {
  run_cluster(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> data(1000);
      std::iota(data.begin(), data.end(), 0.0);
      comm.send_vec<double>(1, 3, data);
    } else {
      const auto data = comm.recv_vec<double>(0, 3);
      ASSERT_EQ(data.size(), 1000u);
      EXPECT_DOUBLE_EQ(data[999], 999.0);
    }
  });
}

TEST(Comm, BarrierSynchronizesPhases) {
  std::atomic<int> counter{0};
  run_cluster(4, [&](Communicator& comm) {
    counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank's increment must be visible.
    EXPECT_EQ(counter.load(), 4);
    comm.barrier();
  });
}

TEST(Comm, SingleRankClusterWorks) {
  run_cluster(1, [](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
  });
}

TEST(Comm, RankExceptionPropagates) {
  EXPECT_THROW(run_cluster(2,
                           [](Communicator& comm) {
                             // Both ranks throw — no one is left waiting.
                             ensure(false, "rank failure " +
                                               std::to_string(comm.rank()));
                           }),
               PreconditionError);
}

TEST(Comm, AbortWakesBlockedRecv) {
  // The rank-failure hang this repo shipped with: rank 1 blocks on a recv
  // that rank 0 (dead from an exception) will never satisfy. The abort
  // protocol must wake the recv with ClusterAborted and surface rank 0's
  // root cause from run_cluster, not rank 1's secondary unwind.
  try {
    run_cluster(2, [](Communicator& comm) {
      if (comm.rank() == 0) {
        ensure(false, "rank 0 deliberate failure");
      } else {
        (void)comm.recv(0, 99);  // would hang forever without the abort
        FAIL() << "recv returned despite a dead peer";
      }
    });
    FAIL() << "run_cluster swallowed the rank failure";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate"), std::string::npos);
  }
}

TEST(Comm, AbortWakesBlockedBarrier) {
  // Same hang through the barrier path: a waiter whose peer died before
  // arriving must unwind, and the reported error is the root cause (a
  // plain runtime_error here, not the ClusterAborted it triggered).
  try {
    run_cluster(2, [](Communicator& comm) {
      if (comm.rank() == 0) throw std::runtime_error("boom at startup");
      comm.barrier();
      FAIL() << "barrier completed despite a dead peer";
    });
    FAIL() << "run_cluster swallowed the rank failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at startup");
  }
}

TEST(ShardCluster, FrontendRoundTripAndAbortReporting) {
  {
    // Healthy pool: the extra front-end endpoint round-trips messages with
    // both ranks, and a clean shutdown leaves no error recorded.
    ShardCluster pool(2, [](Communicator& comm) {
      const int frontend = comm.size() - 1;
      for (;;) {
        const int v = comm.recv_value<int>(frontend, 5);
        if (v < 0) break;  // shutdown sentinel
        comm.send_value<int>(frontend, 6, v * 10 + comm.rank());
      }
    });
    Communicator& fe = pool.frontend();
    fe.send_value<int>(0, 5, 1);
    fe.send_value<int>(1, 5, 2);
    EXPECT_EQ(fe.recv_value<int>(0, 6), 10);
    EXPECT_EQ(fe.recv_value<int>(1, 6), 21);
    fe.send_value<int>(0, 5, -1);
    fe.send_value<int>(1, 5, -1);
    pool.join();
    EXPECT_FALSE(pool.aborted());
    EXPECT_TRUE(pool.first_error().empty());
  }
  {
    // Faulty pool: a throwing rank aborts the cluster (waking its blocked
    // peer) and its message is reported as the first error.
    ShardCluster pool(2, [](Communicator& comm) {
      const int frontend = comm.size() - 1;
      if (comm.rank() == 0) throw std::runtime_error("shard down");
      (void)comm.recv(frontend, 5);  // unblocked by the abort
    });
    pool.join();
    EXPECT_TRUE(pool.aborted());
    EXPECT_NE(pool.first_error().find("shard down"), std::string::npos);
  }
}

TEST(Halo, ExchangeFillsMarginsFromNeighbours) {
  // 2x2 rank grid, interior 6x6, halo 2. Each rank fills its interior with
  // its rank id; after exchange every margin must carry the neighbour's id.
  const RankGrid ranks{2, 2};
  const Index interior = 6, halo = 2;
  run_cluster(4, [&](Communicator& comm) {
    Grid2D<int> tile(interior + 2 * halo, interior + 2 * halo, -1);
    for (Index y = halo; y < halo + interior; ++y) {
      for (Index x = halo; x < halo + interior; ++x) {
        tile.at(x, y) = comm.rank();
      }
    }
    exchange_halo(comm, ranks, tile, interior, interior, halo);
    const Index rx = ranks.rx_of(comm.rank());
    const Index ry = ranks.ry_of(comm.rank());
    // Horizontal neighbour margin.
    if (rx + 1 < ranks.ranks_x) {
      EXPECT_EQ(tile.at(halo + interior, halo + 1),
                ranks.rank_of(rx + 1, ry));
    }
    if (rx > 0) {
      EXPECT_EQ(tile.at(0, halo + 1), ranks.rank_of(rx - 1, ry));
      EXPECT_EQ(tile.at(1, halo + 1), ranks.rank_of(rx - 1, ry));
    }
    // Vertical neighbour margin.
    if (ry + 1 < ranks.ranks_y) {
      EXPECT_EQ(tile.at(halo + 1, halo + interior),
                ranks.rank_of(rx, ry + 1));
    }
    if (ry > 0) {
      EXPECT_EQ(tile.at(halo + 1, 0), ranks.rank_of(rx, ry - 1));
    }
    // Corner margin (diagonal neighbour).
    if (rx + 1 < ranks.ranks_x && ry + 1 < ranks.ranks_y) {
      EXPECT_EQ(tile.at(halo + interior, halo + interior),
                ranks.rank_of(rx + 1, ry + 1));
    }
    // Image-edge margins stay untouched.
    if (rx == 0) {
      EXPECT_EQ(tile.at(0, halo + 1), rx > 0 ? 0 : -1);
    }
  });
}

/// Property sweep: halo exchange must deliver every neighbour's strip
/// content for arbitrary rank-grid shapes and halo widths. Each rank fills
/// its interior with a position-encoding value (rank*10000 + y*100 + x in
/// *global* coordinates), so received margins can be checked against the
/// exact cells the neighbour owns.
class HaloSweep
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(HaloSweep, MarginsCarryNeighbourCells) {
  const auto [rx_count, ry_count, halo] = GetParam();
  const RankGrid ranks{rx_count, ry_count};
  const Index interior = 6;
  run_cluster(static_cast<int>(rx_count * ry_count), [&](Communicator& comm) {
    const Index rx = ranks.rx_of(comm.rank());
    const Index ry = ranks.ry_of(comm.rank());
    auto encode = [&](Index gx, Index gy) {
      return static_cast<int>(gy * 1000 + gx);
    };
    Grid2D<int> tile(interior + 2 * halo, interior + 2 * halo, -1);
    for (Index y = 0; y < interior; ++y) {
      for (Index x = 0; x < interior; ++x) {
        tile.at(halo + x, halo + y) =
            encode(rx * interior + x, ry * interior + y);
      }
    }
    exchange_halo(comm, ranks, tile, interior, interior, halo);
    // Every margin cell with an in-image global coordinate must hold the
    // encoding of that global cell; off-image margins stay -1.
    for (Index ty = 0; ty < tile.height(); ++ty) {
      for (Index tx = 0; tx < tile.width(); ++tx) {
        const bool in_interior = tx >= halo && tx < halo + interior &&
                                 ty >= halo && ty < halo + interior;
        if (in_interior) continue;
        const Index gx = rx * interior + (tx - halo);
        const Index gy = ry * interior + (ty - halo);
        const bool exists = gx >= 0 && gx < rx_count * interior && gy >= 0 &&
                            gy < ry_count * interior;
        if (exists) {
          ASSERT_EQ(tile.at(tx, ty), encode(gx, gy))
              << "rank " << comm.rank() << " tile (" << tx << "," << ty << ")";
        } else {
          ASSERT_EQ(tile.at(tx, ty), -1);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, HaloSweep,
    ::testing::Values(std::make_tuple(Index{1}, Index{1}, Index{2}),
                      std::make_tuple(Index{2}, Index{1}, Index{1}),
                      std::make_tuple(Index{1}, Index{3}, Index{2}),
                      std::make_tuple(Index{2}, Index{2}, Index{3}),
                      std::make_tuple(Index{3}, Index{2}, Index{1}),
                      std::make_tuple(Index{3}, Index{3}, Index{2})));

TEST(Halo, ZeroHaloIsNoop) {
  const RankGrid ranks{2, 1};
  run_cluster(2, [&](Communicator& comm) {
    Grid2D<float> tile(4, 4, 1.0f);
    exchange_halo(comm, ranks, tile, 4, 4, 0);
    EXPECT_EQ(tile.at(0, 0), 1.0f);
  });
}

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
