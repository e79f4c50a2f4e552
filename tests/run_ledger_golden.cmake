# Byte-identity guard for the drop ledger: runs capbench_figures on the
# scenarios that drive the nic_ring, bpf_store, fanout, disk_spill and
# drain buckets (plus overload episodes) with --metrics and --timeseries,
# and compares both documents' SHA-256 against the committed hashes.  The
# time-series document does not depend on --jobs; the metrics document
# embeds it, so the run is pinned to one jobs value.
#
# Expects: FIGURES_BIN, OUT_DIR, GOLDEN_DIR (holding
# ledger_golden.{metrics,timeseries}.sha256).
if(NOT FIGURES_BIN OR NOT OUT_DIR OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "run_ledger_golden.cmake: missing FIGURES_BIN/OUT_DIR/GOLDEN_DIR")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CAPBENCH_PACKETS=4000 CAPBENCH_REPS=1
          ${FIGURES_BIN} --run ext_overload_pulse ext_multiqueue ext_disk_writer
          ext_distributed --jobs 4
          --metrics ${OUT_DIR}/ledger_golden.metrics.json
          --timeseries ${OUT_DIR}/ledger_golden.timeseries.json
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "capbench_figures failed with exit code ${run_rc}")
endif()

foreach(doc metrics timeseries)
  file(SHA256 ${OUT_DIR}/ledger_golden.${doc}.json actual)
  file(READ ${GOLDEN_DIR}/ledger_golden.${doc}.sha256 expected)
  string(STRIP "${expected}" expected)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "${doc} output ${OUT_DIR}/ledger_golden.${doc}.json hashes to ${actual}, "
            "golden says ${expected}; drop-ledger regression (or an intentional "
            "model change — regenerate the hashes and say so in the commit message)")
  endif()
endforeach()
