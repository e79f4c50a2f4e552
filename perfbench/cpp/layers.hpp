// The layer profile: a traced pass over a workload plus replays of single
// layers through their public functions, all timed from the benchmark's
// own code (nothing inside src/ is instrumented).
#pragma once

#include <string>
#include <vector>

#include "capbench/report/json.hpp"
#include "workload.hpp"

namespace perfbench {

/// Wall seconds to compile and install the workload's filter on a fresh
/// capture::FilterRunner; 0 when no SUT filters.  Cold only when called
/// before anything else installed the filter in this process.
double cold_filter_install_seconds(const Workload& w);

struct LayerProfile {
    /// Metric name -> {value, unit}, in BENCHMARK.json's per_layer order.
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    Checks checks;
};

/// The traced run, made after the caller's warm-up pass.  `budget_s`
/// bounds the untraced baseline passes.  Spans are kept
/// in memory and written to `spans_path` (when non-empty) at the end.
LayerProfile profile_layers(const Workload& w, std::uint64_t seed, double budget_s,
                            double filter_install_s,
                            const std::string& spans_path);

}  // namespace perfbench
