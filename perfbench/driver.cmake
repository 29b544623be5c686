# The benchmark driver target. Included by inject.cmake at the end of the
# repository's top-level CMakeLists.txt, so the driver links the same
# sketch_server library the stock sketch_serverd is built from, with the
# repository's compile flags and build type.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
add_executable(perfbench_driver
  ${PERFBENCH_DIR}/driver/main.cc
  ${PERFBENCH_DIR}/driver/replay.cc
  ${PERFBENCH_DIR}/driver/spans.cc
  ${PERFBENCH_DIR}/driver/wire.cc
  ${PERFBENCH_DIR}/driver/workloads.cc
)
set_target_properties(perfbench_driver PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
target_link_libraries(perfbench_driver PRIVATE sketch_server)
target_compile_definitions(perfbench_driver PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
