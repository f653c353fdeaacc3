// Host capability queries used for kernel dispatch decisions and for
// printing the evaluation setup header (paper Table 2 analogue).
//
// Three layers of ISA capability are reported separately, because since the
// per-ISA kernel TUs landed they are genuinely independent:
//   compiled_*  what the build's baseline -march compiled into *every* TU
//               (a binary whose baseline exceeds the host SIGILLs anywhere);
//   kernel_*    which per-ISA ASR kernel TUs were linked in (built with
//               their own explicit -march, independent of the baseline);
//   runtime_*   what this host's cpuid reports it can execute.
// The legacy avx2/avx512f fields mean "usable by the kernel dispatcher":
// kernel TU present AND the host can run it.
#pragma once

#include <string>

namespace sarbp {

struct CpuInfo {
  int hardware_threads = 1;   ///< std::thread::hardware_concurrency
  // Baseline ISA of the build (-march applied to every translation unit).
  bool compiled_avx2 = false;
  bool compiled_avx512f = false;
  // Per-ISA kernel translation units linked into this binary.
  bool kernel_avx2 = false;
  bool kernel_avx512f = false;
  // What cpuid says the host supports (OS-enabled, via the compiler's
  // cpu-supports runtime on x86; assumed == compiled elsewhere).
  bool runtime_avx2 = false;
  bool runtime_avx512f = false;
  // Usable vector kernels: TU linked in AND host-supported.
  bool avx2 = false;
  bool avx512f = false;
  int simd_width_floats = 1;  ///< widest usable SIMD lane count for f32
};

CpuInfo cpu_info();

/// Human-readable one-liner for benchmark headers.
std::string cpu_summary();

/// Fails fast with a clear PreconditionError when the build's *baseline*
/// ISA exceeds what this host reports — e.g. a -march=native AVX-512 build
/// copied onto an AVX2-only box — instead of letting the first vector
/// instruction SIGILL. Entry points (CLI, benches, the kernel dispatcher)
/// call this before any kernel runs. No-op when the binary is compatible.
void require_compiled_isa_supported();

}  // namespace sarbp
