// The benchmark's workloads and the user path it times.
//
// A workload is a fixed set of registry scenarios run the way
// `capbench_figures --run <ids> --json out.json [--metrics m.json
// --timeseries t.json] --jobs N` runs them: scenario::run_scenario per
// scenario, then the report writers serialize every document.  One such
// run over the whole set is a "pass".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capbench/obs/timeseries.hpp"
#include "capbench/scenario/runner.hpp"

namespace perfbench {

struct Workload {
    std::string name;
    std::vector<std::string> scenarios;
    int jobs = 1;
    /// Simulated packets per sweep point (RunOptions::packets).
    std::uint64_t packets = 0;
    /// --metrics and --timeseries on, as a user inspecting drops would run.
    bool observed = false;
};

/// Every workload, in the order `run.py --all` runs them.
const std::vector<Workload>& workloads();

/// Throws std::runtime_error naming the known workloads.
const Workload& find_workload(const std::string& name);

/// The seed capbench_figures uses when none is given (RunOptions::seed);
/// the reference documents are recorded at it.
inline constexpr std::uint64_t kReferenceSeed = 1;

/// Counts output checks; `first_failure` explains the first failed one.
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_failure;

    void expect(bool ok, const std::string& what);
    void merge(const Checks& other);
};

/// What a pass may switch off, for the observation-overhead comparison.
struct PassOptions {
    bool metrics = false;
    bool timeseries = false;
    int jobs = 1;
};

/// The options a user gets for `w`: its own job count, observation as
/// the workload defines it.
PassOptions user_options(const Workload& w);

/// Every document the user path writes, serialized as capbench_figures
/// writes them: the figures suite always, the metrics suite when metrics
/// were collected, the time-series document when one was sampled.
struct Reports {
    std::string figures;  // the capbench.figures.v1 suite
    std::uint64_t bytes = 0;  // all documents together
};

Reports write_reports(const Workload& w,
                      const std::vector<capbench::scenario::ScenarioResult>& results,
                      bool metrics, const capbench::obs::TimeSeries* timeseries);

struct PassResult {
    std::string figures;
    /// Seconds spent in write_reports.
    double report_s = 0.0;
    /// Simulated packets generated, summed over every sweep point.
    std::uint64_t generated = 0;
    Checks checks;
};

/// One pass of the user path.  Checks every point's result and, when
/// sampled, that the time-series deltas sum to the run totals.
PassResult run_pass(const Workload& w, std::uint64_t seed, const PassOptions& opts);

/// The time-series tick capbench_figures uses for --timeseries when
/// CAPBENCH_SAMPLE_INTERVAL is unset.
capbench::sim::Duration default_sample_interval();

/// Checks a finalized time series: generated and per-app delivered deltas
/// sum to the frozen totals.
void check_timeseries(const capbench::obs::TimeSeries& ts, Checks& checks);

/// Wall seconds of a fixed calibration kernel that shares no code with
/// capbench; timed between passes to track the host's current speed.
double calibration_seconds();

/// Host CPU seconds (user + system) this process has used so far.
double process_cpu_seconds();

/// Peak resident set of this program (VmHWM), in MiB.
double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_seconds();

}  // namespace perfbench
