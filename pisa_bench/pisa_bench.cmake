# pisa_bench's build file. It adds the benchmark to the repository's own
# CMake project without editing it: passed as CMAKE_PROJECT_pisa_INCLUDE, it
# runs right after the root CMakeLists.txt calls project(pisa), and defers
# adding the targets until the root file is done, so the benchmark compiles
# with the root's settings against the root's library targets, and its smoke
# test joins the root's ctest.
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_pisa_INCLUDE=$PWD/pisa_bench/pisa_bench.cmake
#   cmake --build .bench_build -j --target pisa_bench
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "pisa_bench needs CMake 3.19 or newer (cmake_language DEFER)")
endif()

function(pisa_bench_add_targets)
  set(dir "${CMAKE_CURRENT_FUNCTION_LIST_DIR}")
  add_executable(pisa_bench ${dir}/main.cpp ${dir}/world.cpp ${dir}/deploy.cpp
                            ${dir}/window.cpp ${dir}/traced.cpp
                            ${dir}/alloc.cpp)
  target_link_libraries(pisa_bench PRIVATE pisa_rpc pisa_core)

  string(TOUPPER "${CMAKE_BUILD_TYPE}" bt)
  string(STRIP "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${bt}}" flags)
  target_compile_definitions(pisa_bench PRIVATE
    PISA_SOURCE_ROOT="${CMAKE_SOURCE_DIR}"
    PISA_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PISA_BENCH_FLAGS="${flags}")

  # Smoke test: every workload for about 2 s with the oracle gate on.
  add_test(NAME pisa_bench_smoke
           COMMAND pisa_bench --seconds=2 --json-out=pisa_bench_smoke.json)
endfunction()

cmake_language(DEFER CALL pisa_bench_add_targets)
