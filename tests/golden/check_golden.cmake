# Golden figure gate: runs one figure bench at a pinned fidelity and
# compares its stdout with a committed golden file.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DTHREADS=<n> \
#         -DACTUAL=<where to write the output on mismatch> \
#         [-DEXTRA_ENV=<VAR=value;...>] [-DREMOVE=<file>] -P check_golden.cmake
#
# The `fidelity:` banner line is skipped on both sides: it is the only line
# that names the thread count, and every other byte must match at any
# VGR_THREADS. Every other VGR_* variable is cleared first so no knob in the
# caller's environment can change the run; EXTRA_ENV then sets the listed ones
# (a supervised run's VGR_SWEEP_*), and REMOVE deletes a file left by an
# earlier run (a sweep journal) before this one starts.
#
# To regenerate after an intended output change, run the bench by hand with
# VGR_RUNS=2 VGR_SIM_SECONDS=10 VGR_THREADS=1, write its stdout over the
# golden file, and say why in CHANGES.md.

foreach(var BENCH GOLDEN THREADS ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E environment OUTPUT_VARIABLE env_dump)
string(REGEX MATCHALL "(^|\n)VGR_[A-Za-z0-9_]*=" vgr_vars "${env_dump}")
foreach(var IN LISTS vgr_vars)
  string(REGEX REPLACE "[\n=]" "" var "${var}")
  unset(ENV{${var}})
endforeach()
set(ENV{VGR_RUNS} 2)
set(ENV{VGR_SIM_SECONDS} 10)
set(ENV{VGR_THREADS} ${THREADS})
foreach(entry IN LISTS EXTRA_ENV)
  if(NOT entry MATCHES "^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
    message(FATAL_ERROR "check_golden.cmake: EXTRA_ENV entry '${entry}' is not VAR=value")
  endif()
  set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
endforeach()
if(REMOVE)
  file(REMOVE ${REMOVE})
endif()

execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)

string(REGEX REPLACE "(^|\n)fidelity:[^\n]*" "" actual_cmp "${actual}")
string(REGEX REPLACE "(^|\n)fidelity:[^\n]*" "" expected_cmp "${expected}")
if(NOT actual_cmp STREQUAL expected_cmp)
  file(WRITE ${ACTUAL} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "output of ${BENCH} at VGR_THREADS=${THREADS} differs from ${GOLDEN}; "
                      "the full output is in ${ACTUAL}")
endif()
