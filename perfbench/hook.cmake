# Included at the end of the repository's project(sarbp) call through
# -DCMAKE_PROJECT_sarbp_INCLUDE. The library targets do not exist yet at
# that point, so the benchmark's build file is included once the root
# CMakeLists has been processed in full (deferred calls may not add
# subdirectories, hence include).
set(SARBP_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${SARBP_PERFBENCH_DIR}/CMakeLists.txt")
