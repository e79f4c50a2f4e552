# Byte-identity guard for the metrics pipeline: runs capbench_figures on
# the pinned scenario set / seed / packet count / reps with --metrics and
# compares the document's SHA-256 against the committed hash.
# The hash pins every latency summary byte (count/min/max/mean/p50/p95/p99)
# without committing the ~1 MB document.  The documents embed "jobs" in
# their config, so each jobs value has its own hash.
#
# A scenario set with a filter (fig_6_6) depends on the BPF execution tier:
# the metrics document carries the filter-program cache counters and
# decoded-program gauges, which only the jit tier reports.  Such a test
# keeps one hash per tier and passes GOLDEN with a "<tier>" placeholder,
# replaced by CAPBENCH_BPF_TIER (default jit), the variable capbench_figures
# reads.
#
# Expects: FIGURES_BIN, JOBS, PACKETS, REPS, SCENARIOS (a list of ids), OUT,
# GOLDEN (a file holding the hex digest).
if(NOT FIGURES_BIN OR NOT JOBS OR NOT PACKETS OR NOT REPS OR NOT SCENARIOS
   OR NOT OUT OR NOT GOLDEN)
  message(FATAL_ERROR
          "run_metrics_golden.cmake: missing FIGURES_BIN/JOBS/PACKETS/REPS/SCENARIOS/OUT/GOLDEN")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CAPBENCH_PACKETS=${PACKETS} CAPBENCH_REPS=${REPS}
          ${FIGURES_BIN} --run ${SCENARIOS} --jobs ${JOBS} --metrics ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "capbench_figures failed with exit code ${run_rc}")
endif()

set(tier "$ENV{CAPBENCH_BPF_TIER}")
if(tier STREQUAL "")
  set(tier jit)
endif()
string(REPLACE "<tier>" "${tier}" GOLDEN "${GOLDEN}")

file(SHA256 ${OUT} actual)
file(READ ${GOLDEN} expected)
string(STRIP "${expected}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "metrics output ${OUT} hashes to ${actual}, golden ${GOLDEN} says "
          "${expected}; determinism regression (or an intentional model change "
          "— regenerate the hashes and say so in the commit message)")
endif()
