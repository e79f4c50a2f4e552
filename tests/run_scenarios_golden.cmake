# Byte-identity guard for the whole scenario registry: runs every scenario
# except ext_filter_tiers (whose cells are host-timed) at a small packet
# count with --json, --metrics and --timeseries, and compares each
# document's SHA-256 against the committed hashes.  The documents embed
# "jobs", so the run is pinned to one jobs value.
#
# The figures and time-series documents do not depend on the BPF execution
# tier.  The metrics document does: it carries the filter-program cache
# counters and the jitted-program size (`decoded_insns`), which only the jit
# tier reports.  So the metrics hash is kept per tier, chosen by
# CAPBENCH_BPF_TIER (default jit), the variable capbench_figures reads.
#
# Expects: FIGURES_BIN, OUT_DIR, GOLDEN_DIR (holding
# scenarios_golden.{figures,timeseries,metrics.<tier>}.sha256).
if(NOT FIGURES_BIN OR NOT OUT_DIR OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "run_scenarios_golden.cmake: missing FIGURES_BIN/OUT_DIR/GOLDEN_DIR")
endif()

set(tier "$ENV{CAPBENCH_BPF_TIER}")
if(tier STREQUAL "")
  set(tier jit)
endif()

set(scenarios
    fig_4_1 fig_4_2 fig_4_4
    fig_6_2 fig_6_3 fig_6_4 fig_6_6 fig_6_7 fig_6_8 fig_6_9 fig_6_10
    fig_6_11 fig_6_12 fig_6_13 fig_6_14 fig_6_15 fig_6_16
    fig_b_1 fig_b_2 fig_b_3
    ext_10gbe ext_distributed ext_zerocopy_bpf ext_multiqueue
    ext_disk_writer ext_overload_pulse ablation_livelock)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CAPBENCH_PACKETS=1500 CAPBENCH_REPS=1
          ${FIGURES_BIN} --run ${scenarios} --jobs 4
          --json ${OUT_DIR}/scenarios_golden.figures.json
          --metrics ${OUT_DIR}/scenarios_golden.metrics.json
          --timeseries ${OUT_DIR}/scenarios_golden.timeseries.json
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "capbench_figures failed with exit code ${run_rc}")
endif()

foreach(doc figures timeseries metrics)
  set(golden ${GOLDEN_DIR}/scenarios_golden.${doc}.sha256)
  if(doc STREQUAL "metrics")
    set(golden ${GOLDEN_DIR}/scenarios_golden.metrics.${tier}.sha256)
  endif()
  file(SHA256 ${OUT_DIR}/scenarios_golden.${doc}.json actual)
  file(READ ${golden} expected)
  string(STRIP "${expected}" expected)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "${doc} output ${OUT_DIR}/scenarios_golden.${doc}.json hashes to ${actual}, "
            "golden ${golden} says ${expected}; determinism regression (or an "
            "intentional model change — regenerate the hashes and say so in the "
            "commit message)")
  endif()
endforeach()
