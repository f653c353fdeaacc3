// Reproduces paper Table 4: multi-node weak scaling under the real-time
// constraint (1-16 nodes; image grows with the cluster; throughput in
// backprojections/s; MPI parallelization efficiency 1.00 -> 0.93) with the
// analytic node model sized exactly like the paper (same method as its own
// Table 5 projection): the (image, k, S, throughput, efficiency) columns.
// The measured Table 4 runs through the ranks the sharded formation
// service uses: bench/table4_service_scaling.
#include <cstdio>

#include "bench_util.h"
#include "perfmodel/projection.h"

int main() {
  using namespace sarbp;
  bench::print_header("Table 4 - multi-node weak scaling (real-time sizing)");

  perfmodel::NodeModel model;
  const Index counts[] = {1, 2, 4, 8, 16};
  const auto points = perfmodel::weak_scaling_projection(model, counts);
  struct PaperRow {
    const char* image;
    int k;
    const char* s;
    int gbps;
    double eff;
  };
  const PaperRow paper[] = {{"3K", 2, "4K", 35, 1.00},
                            {"4K", 3, "6K", 71, 1.01},
                            {"6K", 4, "9K", 138, 0.97},
                            {"9K", 6, "13K", 265, 0.94},
                            {"13K", 9, "19K", 530, 0.93}};
  std::printf("\nanalytic model vs paper:\n");
  std::printf("%5s | %6s %3s %6s %6s %5s | %6s %3s %6s %6s %5s\n", "nodes",
              "img", "k", "S", "Gbp/s", "eff", "img", "k", "S", "Gbp/s",
              "eff");
  bench::print_rule();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::printf(
        "%5lld | %6s %3d %6s %6d %5.2f | %5.1fK %3d %5.1fK %6.0f %5.2f\n",
        static_cast<long long>(p.nodes), paper[i].image, paper[i].k,
        paper[i].s, paper[i].gbps, paper[i].eff,
        static_cast<double>(p.image) / 1000.0, p.accumulation,
        static_cast<double>(p.samples) / 1000.0,
        p.throughput_bp_per_s / 1e9, p.parallel_efficiency);
  }
  std::printf("(left: paper Table 4; right: model)\n");
  return 0;
}
