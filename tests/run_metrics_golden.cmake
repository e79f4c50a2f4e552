# Byte-identity guard for the metrics pipeline: runs capbench_figures on
# the pinned scenario set / seed / packet count with --metrics and compares
# the document's SHA-256 against the committed hash for this --jobs value.
# The hash pins every latency summary byte (count/min/max/mean/p50/p95/p99)
# without committing the ~1 MB document.  The documents embed "jobs" in
# their config, so each jobs value has its own hash.
#
# Expects: FIGURES_BIN, JOBS, OUT, GOLDEN (a file holding the hex digest).
if(NOT FIGURES_BIN OR NOT JOBS OR NOT OUT OR NOT GOLDEN)
  message(FATAL_ERROR "run_metrics_golden.cmake: missing FIGURES_BIN/JOBS/OUT/GOLDEN")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CAPBENCH_PACKETS=1500 CAPBENCH_REPS=1
          ${FIGURES_BIN} --run fig_6_2 fig_6_8 --jobs ${JOBS} --metrics ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "capbench_figures failed with exit code ${run_rc}")
endif()

file(SHA256 ${OUT} actual)
file(READ ${GOLDEN} expected)
string(STRIP "${expected}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "metrics output ${OUT} hashes to ${actual}, golden ${GOLDEN} says "
          "${expected}; determinism regression (or an intentional model change "
          "— regenerate the hashes and say so in the commit message)")
endif()
