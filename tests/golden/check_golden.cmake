# Golden figure gate: runs one figure bench at a pinned fidelity and
# compares its stdout with a committed golden file.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DTHREADS=<n> \
#         -DACTUAL=<where to write the output on mismatch> \
#         [-DEXTRA_ENV=<VAR=value;...>] [-DREMOVE=<file>] \
#         [-DEXIT_CODE=<n>] [-DUNCHANGED=<file>] [-DARTIFACT=<file>] \
#         -P check_golden.cmake
#
# The `fidelity:` banner line is skipped on both sides: it is the only line
# that names the thread count, and every other byte must match at any
# VGR_THREADS. Every other VGR_* variable is cleared first so no knob in the
# caller's environment can change the run; EXTRA_ENV then sets the listed ones
# (a supervised run's VGR_SWEEP_*), and REMOVE deletes a file left by an
# earlier run (a sweep journal) before this one starts. EXIT_CODE (default 0)
# is the status the bench must exit with; with any other value the output is
# not compared. UNCHANGED names a file the run must leave byte for byte as it
# found it (a journal the supervisor refuses). ARTIFACT names a file the bench
# writes (its JSON artifact, pointed there through EXTRA_ENV): it is deleted
# before the run, and afterwards it is compared with GOLDEN in place of stdout.
#
# To regenerate after an intended output change, run the bench by hand with
# VGR_RUNS=2 VGR_SIM_SECONDS=10 VGR_THREADS=1, write its stdout over the
# golden file, and say why in CHANGES.md. resilience.json is the artifact of
# bench_resilience at VGR_RUNS=2 VGR_SIM_SECONDS=5 VGR_THREADS=1, written over
# the golden file through VGR_BENCH_JSON.

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
if(ARTIFACT)
  file(REMOVE ${ARTIFACT})
endif()

if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 0)
endif()
if(UNCHANGED)
  file(SHA256 ${UNCHANGED} unchanged_before)
endif()

execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(UNCHANGED)
  file(SHA256 ${UNCHANGED} unchanged_after)
  if(NOT unchanged_after STREQUAL unchanged_before)
    message(FATAL_ERROR "${BENCH} changed ${UNCHANGED}")
  endif()
endif()
if(NOT rc EQUAL EXIT_CODE)
  message(FATAL_ERROR "${BENCH} exited with ${rc}, expected ${EXIT_CODE}")
endif()
if(NOT EXIT_CODE EQUAL 0)
  return()
endif()
if(ARTIFACT)
  if(NOT EXISTS ${ARTIFACT})
    message(FATAL_ERROR "${BENCH} did not write ${ARTIFACT}")
  endif()
  file(READ ${ARTIFACT} actual)
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
