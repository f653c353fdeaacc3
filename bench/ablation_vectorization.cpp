// Ablation (§5.2.2, §4.4): vectorization speedup of the ASR kernel and
// the inner-loop implementation variants. Paper: 4.6x on Xeon (8-wide
// AVX) and 10x on Xeon Phi (16-wide IMCI), sub-linear mostly due to
// irregular pulse access.
//
// Rows, in backprojections/s:
//   baseline                 pre-ASR production kernel (Fig. 3(a))
//   asr-scalar               portable ASR sweep (Fig. 3(b))
//   asr-simd/<isa>           streaming SIMD kernel, one row per usable ISA
//   plan/scalar              plan-replay scalar sweep (prebuilt tables)
//   plan/<isa>/<variant>     fused plan-replay SIMD sweep per ISA x
//                            {auto, gather, shuffle, gather-nofma}; auto
//                            (window loads, gathers as fallback) is what
//                            the service and the asr-simd rows run
//
// The plan rows run through the exec::TileBackend interface — the same
// code path the service routes jobs over — so the numbers here are the
// per-backend rates the §5.3 split adapts to.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "backprojection/kernel.h"
#include "bench_util.h"
#include "common/timer.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"

int main(int argc, char** argv) {
  using namespace sarbp;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 256);
  const Index pulses = args.get("pulses", 32);
  const Index block = args.get("block", 64);
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("ablation_vectorization", spec);

  const auto scenario = bench::make_bench_scenario(image, pulses);
  const Region all{0, 0, image, image};
  const double bp_per_run = static_cast<double>(all.pixels()) *
                            static_cast<double>(pulses);

  bench::print_header(
      "Ablation - ASR vectorization and kernel variants (§5.2.2, §4.4)");
  std::printf("image %lldx%lld, %lld pulses, block %lld; %s=%d %s=%d\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses), static_cast<long long>(block),
              "warmup", spec.warmup, "repeat", spec.repeat);
  // Rows print once all are measured: the speedup column is relative to
  // asr-scalar, which runs after the baseline row.
  std::vector<std::pair<std::string, double>> rows;
  const auto report = [&](const std::string& name,
                          std::vector<std::pair<std::string, std::string>>
                              params,
                          const std::function<double()>& run_seconds) {
    const bench::SampleStats seconds =
        bench::run_repeated(spec, run_seconds);
    bench::SampleStats rate;
    // Inverting seconds swaps the quartiles (faster run = higher rate).
    rate.median = bp_per_run / seconds.median;
    rate.q1 = bp_per_run / seconds.q3;
    rate.q3 = bp_per_run / seconds.q1;
    rows.emplace_back(name, rate.median);
    json.add(name, std::move(params), "backprojections/s", rate);
  };

  report("baseline", {{"kernel", "baseline"}}, [&] {
    bp::SoaTile tile(all.width, all.height);
    Timer timer;
    bp::backproject_baseline(scenario.history, scenario.grid, all, 0, pulses,
                             false, geometry::LoopOrder::kXInner, tile);
    return timer.seconds();
  });

  report("asr-scalar", {{"kernel", "asr-scalar"}}, [&] {
    bp::SoaTile tile(all.width, all.height);
    Timer timer;
    bp::backproject_asr_scalar(scenario.history, scenario.grid, all, 0,
                               pulses, block, block,
                               geometry::LoopOrder::kXInner, tile);
    return timer.seconds();
  });

  const std::vector<bp::SimdIsa> isas = {bp::SimdIsa::kAvx2,
                                         bp::SimdIsa::kAvx512};
  for (const bp::SimdIsa isa : isas) {
    if (!bp::asr_isa_available(isa)) continue;
    const std::string isa_name = bp::simd_isa_name(isa);
    report("asr-simd/" + isa_name,
           {{"kernel", "asr-simd"}, {"isa", isa_name}}, [&] {
             bp::SoaTile tile(all.width, all.height);
             Timer timer;
             bp::backproject_asr_simd(scenario.history, scenario.grid, all, 0,
                                      pulses, block, block,
                                      geometry::LoopOrder::kXInner, tile, isa);
             return timer.seconds();
           });
  }

  // Plan-replay rows: prebuilt tables swept through the TileBackend
  // interface (the service's routed path).
  const auto plan = service::build_formation_plan(
      scenario.grid, all, block, block, scenario.history);
  exec::PlanView view;
  view.blocks = plan->blocks.data();
  view.num_blocks = static_cast<Index>(plan->blocks.size());
  view.pulse_order = plan->pulse_order.data();
  view.num_pulses = plan->num_pulses();
  view.tables = plan->tables.data();
  view.region_x0 = all.x0;
  view.region_y0 = all.y0;

  const auto report_backend = [&](const std::string& name,
                                  std::vector<std::pair<std::string,
                                                        std::string>> params,
                                  const exec::BackendSpec& backend_spec) {
    const auto backend = exec::make_backend(backend_spec, 0.5, nullptr);
    report(name, std::move(params), [&] {
      bp::SoaTile tile(all.width, all.height);
      Timer timer;
      for (Index b = 0; b < view.num_blocks; ++b) {
        backend->sweep_block(view, scenario.history, b, 0, pulses, tile);
      }
      return timer.seconds();
    });
  };

  exec::BackendSpec scalar_spec;
  scalar_spec.kind = exec::BackendSpec::Kind::kHostScalar;
  report_backend("plan/scalar", {{"kernel", "plan"}, {"isa", "scalar"}},
                 scalar_spec);

  const std::vector<std::pair<bp::KernelVariant, const char*>> variants = {
      {bp::KernelVariant::kAuto, "auto"},
      {bp::KernelVariant::kGather, "gather"},
      {bp::KernelVariant::kShuffleTranspose, "shuffle"},
      {bp::KernelVariant::kGatherNoFma, "gather-nofma"},
  };
  for (const bp::SimdIsa isa : isas) {
    if (!bp::asr_isa_available(isa)) continue;
    const std::string isa_name = bp::simd_isa_name(isa);
    for (const auto& [variant, variant_name] : variants) {
      exec::BackendSpec simd_spec;
      simd_spec.kind = exec::BackendSpec::Kind::kHostSimd;
      simd_spec.isa = isa;
      simd_spec.variant = variant;
      simd_spec.name = "bench-" + isa_name + "-" + variant_name;
      report_backend("plan/" + isa_name + "/" + variant_name,
                     {{"kernel", "plan"},
                      {"isa", isa_name},
                      {"variant", variant_name}},
                     simd_spec);
    }
  }

  double scalar_rate = 0.0;
  for (const auto& [name, rate] : rows) {
    if (name == "asr-scalar") scalar_rate = rate;
  }
  std::printf("\n%-28s %16s %14s\n", "kernel", "backproj/s", "speedup");
  bench::print_rule();
  for (const auto& [name, rate] : rows) {
    std::printf("%-28s %16.3g %13.2fx\n", name.c_str(), rate,
                scalar_rate > 0 ? rate / scalar_rate : 0.0);
  }
  std::printf("\n(speedup column is relative to asr-scalar; paper §5.2.2: "
              "4.6x on 8-wide AVX, 10x on 16-wide IMCI)\n");
  return 0;
}
