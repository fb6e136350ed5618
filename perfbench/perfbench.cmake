# Build file of the repository benchmark. It attaches to the repository's own
# CMake project, so the library and manetd compile exactly as the repository
# builds them (build type, warnings, -ffp-contract=off, MANET_METRICS), and
# adds the `perfbench` binary next to them:
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=perfbench/perfbench.cmake
#   cmake --build .bench_build --target perfbench manetd
#
# CMake includes this file right after the top-level project() call, before
# any library target exists, so the target definitions are deferred to the
# end of the top-level CMakeLists.txt.

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  add_executable(perfbench
    ${PERFBENCH_DIR}/src/main.cpp
    ${PERFBENCH_DIR}/src/bench.cpp
    ${PERFBENCH_DIR}/src/tracer.cpp
    ${PERFBENCH_DIR}/src/layers.cpp
    ${PERFBENCH_DIR}/src/paper_figs.cpp
    ${PERFBENCH_DIR}/src/trace_65k.cpp
    ${PERFBENCH_DIR}/src/campaign_query.cpp
  )
  target_include_directories(perfbench PRIVATE ${PERFBENCH_DIR}/src)
  target_link_libraries(perfbench PRIVATE manet)

  # Provenance: the flags the library is compiled with.
  string(TOUPPER "${CMAKE_BUILD_TYPE}" build_type)
  get_directory_property(options DIRECTORY ${CMAKE_SOURCE_DIR} COMPILE_OPTIONS)
  string(JOIN " " flags ${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${build_type}} ${options})
  target_compile_definitions(perfbench PRIVATE
    PERFBENCH_CXX_FLAGS="${flags}"
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL perfbench_add_targets)
