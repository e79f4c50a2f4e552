# Byte-identity across BPF execution tiers.  The tier is read from
# CAPBENCH_BPF_TIER once per process, so each tier gets its own process:
# capbench_figures runs ext_overload_pulse (sampled into the time-series
# document) and fig_6_6 (the 50-instruction filter, so the tiers execute
# different code) under the interpreter and under the jit, and both the
# time-series and the figures documents must match byte for byte.
#
# Expects: FIGURES_BIN, OUT_DIR.
if(NOT FIGURES_BIN OR NOT OUT_DIR)
  message(FATAL_ERROR "run_bpf_tier_identity.cmake: missing FIGURES_BIN/OUT_DIR")
endif()

foreach(tier interpreter jit)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CAPBENCH_BPF_TIER=${tier}
            CAPBENCH_PACKETS=4000 CAPBENCH_REPS=1
            ${FIGURES_BIN} --run ext_overload_pulse fig_6_6
            --timeseries ${OUT_DIR}/bpf_tier_ts_${tier}.json
            --json ${OUT_DIR}/bpf_tier_figures_${tier}.json
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "capbench_figures (${tier} tier) failed with exit code ${run_rc}")
  endif()
endforeach()

foreach(doc ts figures)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/bpf_tier_${doc}_interpreter.json ${OUT_DIR}/bpf_tier_${doc}_jit.json
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
            "${doc} document differs between the interpreter and jit BPF tiers "
            "(${OUT_DIR}/bpf_tier_${doc}_*.json)")
  endif()
endforeach()
