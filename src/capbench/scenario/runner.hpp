// The scenario execution engine: runs a Scenario descriptor through the
// measurement cycle (sweep points fanned out over a ParallelExecutor),
// renders the thesis-style text tables, and routes every figure's output
// through the shared gnuplot/JSON report path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "capbench/scenario/registry.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::obs {
class TimeSeries;
class TraceSink;
}

namespace capbench::scenario {

struct RunOptions {
    /// Sweep-point fan-out (see harness::ParallelExecutor); results are
    /// bit-identical regardless of the value.
    int jobs = 1;
    /// Text report target; nullptr runs quietly (tests, JSON-only runs).
    std::ostream* out = nullptr;
    /// Gnuplot export directory; when empty and `gnuplot_env_fallback`
    /// is set, CAPBENCH_GNUPLOT_DIR is honoured — uniformly for every
    /// scenario, sweep or custom.
    std::string gnuplot_dir;
    bool gnuplot_env_fallback = true;
    /// 0 = packets_per_run() (CAPBENCH_PACKETS).
    std::uint64_t packets = 0;
    /// 0 = default_reps() (CAPBENCH_REPS).
    int reps = 0;
    /// Base workload seed (rep k of a point runs at seed + k*7919).
    std::uint64_t seed = 1;
    /// Collect packet-lifecycle metrics for every sweep point (the
    /// capbench.metrics.v1 layer of ScenarioResult).  Off by default —
    /// disabled runs are byte-identical to pre-observability builds.
    bool metrics = false;
    /// Timeline sink (Chrome trace-event JSON).  The trace records one
    /// deterministic designated run: first variant, last sweep point,
    /// rep 0 — identical at any job count.  Must outlive the call.
    obs::TraceSink* trace = nullptr;
    /// Interval time-series sink (capbench.timeseries.v1): samples the
    /// same designated run as `trace`, every `sample_interval` of
    /// simulated time.  Non-null requires a positive interval; must
    /// outlive the call.
    obs::TimeSeries* timeseries = nullptr;
    sim::Duration sample_interval = sim::Duration::zero();
};

/// Executes the scenario: runs every variant's sweep (or the custom table
/// builder), prints progressively to opts.out, exports gnuplot data, and
/// returns the structured result for the JSON layer.
ScenarioResult run_scenario(const Scenario& s, const RunOptions& opts);

/// One line per registered scenario: "<id>  <caption>".  The CLI's
/// --list output; pinned by a golden test so ids/captions cannot drift
/// from the thesis figure numbering.
std::string list_text();

}  // namespace capbench::scenario
