#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   tools/run_sanitized_tests.sh [asan|tsan|all]   (default: all)
#
# Two configurations, mirroring the SARBP_SANITIZE CMake presets:
#
#   build-asan  -DSARBP_SANITIZE=address;undefined — full ctest suite,
#               UBSan halting on its first report (by default it prints
#               the report and recovers, and the test passes).
#   build-tsan  -DSARBP_SANITIZE=thread           — the concurrency-heavy
#               test binaries (queue, pipeline shutdown, observability,
#               the executor, which also runs the pipeline's
#               registration, the service, the sharded service's rank
#               channels and the offload runtime's frames), run directly.
#               Every parallel loop in the library runs on std::threads,
#               so TSan sees all of them.
#
# test_offload runs without its three wall-clock tests,
#   OffloadRuntimeTest.Table3ThroughputRatios,
#   OffloadRuntimeTest.SplitConvergesTowardEffectiveRates and
#   OffloadRuntimeTest.StagingCopyOverlapsWithCompute:
# they assert on measured time, which TSan's slowdown distorts. The rest
# still run offload frames on the pool, whose tasks time their blocks
# concurrently and whose completions call TileBackend::record. Tier-1
# runs all of them.
#
# The TSan configuration also turns on SARBP_DEADLOCK_CHECK, so every run
# doubles as a lock-order audit: the runtime cycle detector (DESIGN.md
# section 14) watches each binary's real acquisitions, and any hierarchy
# violation prints a [sarbp lockdep] cycle report. test_deadlock exercises
# the detector itself and only has teeth in this configuration.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_asan() {
  echo "=== address+undefined sanitizer: configure, build, full ctest ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSARBP_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$jobs"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

run_tsan() {
  echo "=== thread sanitizer: concurrency-focused test binaries ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSARBP_SANITIZE="thread" -DSARBP_DEADLOCK_CHECK=ON >/dev/null
  cmake --build build-tsan -j "$jobs" --target \
    test_common test_deadlock test_obs test_exec test_backends test_pipeline \
    test_service test_streaming test_cluster_service test_offload
  for t in test_common test_deadlock test_obs test_exec test_backends \
           test_pipeline test_service test_streaming test_cluster_service \
           test_offload; do
    echo "--- tsan: $t ---"
    tsan_opts="halt_on_error=1"
    args=()
    # test_deadlock seeds deliberate lock-order inversions to exercise the
    # sarbp detector; TSan's own inversion heuristic would flag those same
    # seeded cycles, so it is off for this one binary (race detection and
    # every other check stay on).
    if [ "$t" = "test_deadlock" ]; then
      tsan_opts="$tsan_opts:detect_deadlocks=0"
    fi
    if [ "$t" = "test_offload" ]; then
      args=(--gtest_filter=-OffloadRuntimeTest.Table3ThroughputRatios:OffloadRuntimeTest.SplitConvergesTowardEffectiveRates:OffloadRuntimeTest.StagingCopyOverlapsWithCompute)
    fi
    TSAN_OPTIONS="$tsan_opts" "build-tsan/tests/$t" "${args[@]}"
  done
}

case "$mode" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
echo "sanitized test run ($mode): OK"
