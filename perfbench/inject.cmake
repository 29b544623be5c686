# Included at the end of the repository's project() call (run.py passes
# -DCMAKE_PROJECT_INCLUDE=<this file>). Defers driver.cmake to the end of
# the top-level CMakeLists.txt, after every repository target and compile
# option is in place. The repository's files are not touched.
if(NOT PERFBENCH_DRIVER_ADDED)
  set(PERFBENCH_DRIVER_ADDED ON)
  # Deferred arguments are expanded when the call runs, so the path is kept
  # in a variable rather than read from CMAKE_CURRENT_LIST_DIR then.
  set(PERFBENCH_DRIVER_CMAKE ${CMAKE_CURRENT_LIST_DIR}/driver.cmake)
  cmake_language(DEFER CALL include ${PERFBENCH_DRIVER_CMAKE})
endif()
