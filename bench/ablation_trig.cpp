// Ablation (paper §6 related work): trigonometric evaluation strategies
// for the backprojection matched-filter phase — per-call cost and accuracy
// of libm, Chebyshev/Taylor polynomials (with the mandatory double
// argument reduction), CORDIC, and the ASR recurrence that replaces them
// all with ~10 multiply/adds per pixel and no reduction.
//
// The paper's point (§6): "reducing arguments to a specific range is often
// the most time-consuming and accuracy-sensitive part of trigonometric
// function calculation ... In contrast, ASR can achieve a high accuracy
// mostly using single precision operations for even arguments with large
// magnitude."
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "signal/chebyshev.h"
#include "signal/cordic.h"
#include "signal/trig.h"

namespace {

using namespace sarbp;
using namespace sarbp::signal;

struct Result {
  const char* name;
  double ns_per_call;
  double max_error;
};

template <class F>
Result measure(const char* name, const std::vector<double>& args, F&& f) {
  // Warm-up + timed pass; a running sum defeats dead-code elimination.
  float sink = 0.0f;
  for (std::size_t i = 0; i < args.size() / 8; ++i) {
    const SinCos sc = f(args[i]);
    sink += sc.sin;
  }
  Timer timer;
  for (const double x : args) {
    const SinCos sc = f(x);
    sink += sc.sin - sc.cos;
  }
  const double seconds = timer.seconds();
  double worst = 0.0;
  for (std::size_t i = 0; i < args.size(); i += 7) {
    const SinCos sc = f(args[i]);
    worst = std::max(worst, std::abs(static_cast<double>(sc.sin) -
                                     std::sin(args[i])));
    worst = std::max(worst, std::abs(static_cast<double>(sc.cos) -
                                     std::cos(args[i])));
  }
  if (sink == 1.2345f) std::printf("!");  // consume the sink
  return {name, seconds / static_cast<double>(args.size()) * 1e9, worst};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args_cli(argc, argv);
  const auto count = static_cast<std::size_t>(args_cli.get("count", 2000000));

  bench::print_header("Ablation - trigonometric strategies for 2*pi*k*r");

  // Realistic backprojection arguments: 2*pi*k*r with r ~ 41 km, k ~ 64.
  Rng rng(3);
  std::vector<double> args(count);
  for (auto& x : args) x = rng.uniform(1.64e7, 1.68e7);
  std::printf("argument magnitude ~%.1e rad (the large-argument regime that "
              "makes reduction expensive)\n\n",
              args[0]);

  std::vector<Result> results;
  results.push_back(measure("libm sin+cos (double)", args, [](double x) {
    return SinCos{static_cast<float>(std::sin(x)),
                  static_cast<float>(std::cos(x))};
  }));
  results.push_back(measure("double-reduce + poly (deg 7/8)", args,
                            [](double x) { return sincos_baseline(x); }));
  results.push_back(measure("double-reduce + EP poly (deg 3/4)", args,
                            [](double x) { return sincos_baseline_ep(x); }));
  results.push_back(measure("double-reduce + Chebyshev deg 9", args,
                            [](double x) {
                              return sincos_chebyshev(
                                  static_cast<float>(reduce_to_pi(x)), 9);
                            }));
  results.push_back(measure("CORDIC 24 iters (+reduce)", args, [](double x) {
    return sincos_cordic_full(x, 24);
  }));
  results.push_back(measure("float reduce + poly (BROKEN)", args,
                            [](double x) {
                              return sincos_float_reduction(
                                  static_cast<float>(x));
                            }));

  std::printf("%-36s %12s %14s\n", "strategy", "ns/call", "max |error|");
  bench::print_rule();
  for (const auto& r : results) {
    std::printf("%-36s %12.2f %14.2e\n", r.name, r.ns_per_call, r.max_error);
  }

  // The ASR comparison point: per inner-loop iteration, the phase costs
  // one complex multiply by the table entry (arg = chi * Psi[m]) plus the
  // column chain's step (chi *= Omega[l]), 8 mul + 4 add in all — no
  // reduction, no polynomial, single precision throughout.
  {
    const std::size_t n = args.size();
    std::vector<float> psi_r(1024), psi_i(1024);
    for (std::size_t i = 0; i < 1024; ++i) {
      psi_r[i] = std::cos(static_cast<float>(i) * 0.01f);
      psi_i[i] = std::sin(static_cast<float>(i) * 0.01f);
    }
    float chi_r = 1.0f, chi_i = 0.0f, acc = 0.0f;
    const float omega_r = 0.99998f, omega_i = 0.0063f;
    Timer timer;
    for (std::size_t i = 0; i < n; ++i) {
      const float pr = psi_r[i & 1023], pi_ = psi_i[i & 1023];
      const float tr = pr * chi_r - pi_ * chi_i;
      const float ti = pr * chi_i + pi_ * chi_r;
      const float next_r = chi_r * omega_r - chi_i * omega_i;
      chi_i = chi_r * omega_i + chi_i * omega_r;
      chi_r = next_r;
      acc += tr - ti;
    }
    const double secs = timer.seconds();
    if (acc == 1.25f) std::printf("!");
    std::printf("%-36s %12.2f %14s\n", "ASR recurrence (per pixel)",
                secs / static_cast<double>(n) * 1e9, "(block-size dep.)");
  }
  std::printf("\n(the reduction step alone forces double precision on the "
              "baseline paths; ASR hoists it into the per-block tables)\n");
  return 0;
}
