#include "common/cpu.h"

#include <sstream>
#include <thread>

#include "common/check.h"

// This file is the one place outside the per-ISA kernel TUs allowed to
// inspect the compiled ISA macros: it *reports* the build baseline so the
// dispatcher and require_compiled_isa_supported() can compare it against
// the host. Everyone else asks CpuInfo / the bp dispatch API instead.

namespace sarbp {
namespace {

bool runtime_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  // x86-64-v3 class minus the exotica: everything the AVX2 kernel TU's
  // -march may emit. The compiler's cpu-supports runtime also checks
  // OS-enabled state (XGETBV), so "yes" means the vectors actually work.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi2");
#else
  // Non-x86: no cpuid to ask; the build system only enables what the
  // target runs, so compiled == runtime.
  // lint: allow(isa-ifdef) -- compiled-baseline reporting is this file's job
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
#endif
}

bool runtime_supports_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  // x86-64-v4 class: the AVX-512 kernel TU uses F/BW/DQ/VL forms.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
#else
  // lint: allow(isa-ifdef) -- compiled-baseline reporting is this file's job
#if defined(__AVX512F__)
  return true;
#else
  return false;
#endif
#endif
}

}  // namespace

CpuInfo cpu_info() {
  CpuInfo info;
  info.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  if (info.hardware_threads <= 0) info.hardware_threads = 1;
  // lint: allow(isa-ifdef) -- compiled-baseline reporting is this file's job
#if defined(__AVX512F__)
  info.compiled_avx512f = true;
#endif
  // lint: allow(isa-ifdef) -- compiled-baseline reporting is this file's job
#if defined(__AVX2__)
  info.compiled_avx2 = true;
#endif
#if SARBP_HAVE_KERNEL_AVX2
  info.kernel_avx2 = true;
#endif
#if SARBP_HAVE_KERNEL_AVX512
  info.kernel_avx512f = true;
#endif
  info.runtime_avx2 = runtime_supports_avx2();
  info.runtime_avx512f = runtime_supports_avx512f();
  info.avx2 = info.kernel_avx2 && info.runtime_avx2;
  info.avx512f = info.kernel_avx512f && info.runtime_avx512f;
  info.simd_width_floats = info.avx512f ? 16 : (info.avx2 ? 8 : 1);
  return info;
}

std::string cpu_summary() {
  const CpuInfo info = cpu_info();
  const auto isa_name = [](bool avx512, bool avx2) {
    return avx512 ? "avx512" : (avx2 ? "avx2" : "scalar");
  };
  std::ostringstream os;
  os << "threads=" << info.hardware_threads
     << " simd=" << isa_name(info.avx512f, info.avx2) << " ("
     << info.simd_width_floats << "-wide f32)"
     << " compiled=" << isa_name(info.compiled_avx512f, info.compiled_avx2)
     << " runtime=" << isa_name(info.runtime_avx512f, info.runtime_avx2);
  return os.str();
}

void require_compiled_isa_supported() {
  const CpuInfo info = cpu_info();
  ensure(!info.compiled_avx512f || info.runtime_avx512f,
         "this binary was compiled with AVX-512F as its baseline ISA "
         "(-march=native on an AVX-512 build host?) but this CPU does not "
         "support it; rebuild with -DSARBP_NATIVE=OFF (the per-ISA kernel "
         "TUs still provide runtime-dispatched AVX2/AVX-512 kernels) or run "
         "on an AVX-512 host");
  ensure(!info.compiled_avx2 || info.runtime_avx2,
         "this binary was compiled with AVX2 as its baseline ISA but this "
         "CPU does not support it; rebuild with -DSARBP_NATIVE=OFF or run "
         "on an AVX2 host");
}

}  // namespace sarbp
