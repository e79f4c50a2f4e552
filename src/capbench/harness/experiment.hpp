// Experiment descriptors shared by the figure benches (the influencing
// variables of Section 6.1 and the measurement parameters of Section 6.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capbench/harness/measurement.hpp"
#include "capbench/harness/parallel.hpp"

namespace capbench::harness {

/// Strict integer parsing for the CAPBENCH_* knobs and command-line
/// values: the whole of `text` must be decimal digits (an optional
/// leading '+' is fine) with a value in [min, max].  Anything else —
/// garbage, empty, whitespace, negative, overflow, out of range — throws
/// std::runtime_error naming `name` and `text`: a configuration error is
/// worth failing loudly over, not an invitation to silently run the
/// wrong experiment.
std::uint64_t parse_integer(const std::string& name, const std::string& text,
                            std::uint64_t min, std::uint64_t max);

/// Most sweep worker threads CAPBENCH_JOBS and `--jobs` accept.
inline constexpr int kMaxJobs = 512;

/// The data-rate grid of the Chapter 6 plots: 50..950 Mbit/s in 50 Mbit/s
/// steps.
std::vector<double> default_rate_grid();

/// Packets generated per run.  The thesis uses 1,000,000; benches default
/// to a smaller count so the whole suite runs in minutes.  Override with
/// the CAPBENCH_PACKETS environment variable.  Throws std::runtime_error
/// when the variable is set to anything but a positive integer.
std::uint64_t packets_per_run();

/// Measurement repetitions per point (thesis: 7).  Override with
/// CAPBENCH_REPS; garbage/zero/negative values throw std::runtime_error.
int default_reps();

/// Worker threads for sweep execution (see ParallelExecutor).  Defaults
/// to 1 (serial); override with CAPBENCH_JOBS.  Garbage/zero/negative
/// values throw std::runtime_error; values above kMaxJobs are rejected
/// too.
int default_jobs();

/// NIC receive queues for the standard sniffers.  Defaults to 1 (the
/// classic single-ring NIC, byte-identical to the pre-RSS figures);
/// override with CAPBENCH_QUEUES.  Garbage/zero/negative values throw
/// std::runtime_error; values above 16 are rejected too.
int default_queues();

/// Time-series sampling interval from CAPBENCH_SAMPLE_INTERVAL, in
/// MICROseconds of simulated time; Duration::zero() when unset (sampling
/// off, the default).  Strict parsing: empty, garbage, zero, negative and
/// overflowing values throw std::runtime_error, as do values above one
/// hour (3'600'000'000 us).
sim::Duration sample_interval_from_env();

/// Per-queue IRQ affinity for the standard sniffers, from CAPBENCH_AFFINITY
/// as a comma-separated list of CPU indices (queue i -> entry i % size;
/// e.g. "0,1,1").  Unset = empty vector (queue i -> CPU i % logical_cpus).
/// Empty items, garbage, negative values and indices above 255 throw
/// std::runtime_error.
std::vector<int> affinity_from_env();

/// The four sniffers of Figure 2.4 in plot order.
std::vector<SutConfig> standard_suts();

/// Section 6.3.1's increased buffers: 10 MB BPF double-buffer halves for
/// FreeBSD, 128 MB socket buffers for Linux.
void apply_increased_buffers(std::vector<SutConfig>& suts);

/// Single processor mode ("no SMP").
void apply_single_cpu(std::vector<SutConfig>& suts);

/// The 50-instruction BPF filter expression of Figure 6.5 (accepts every
/// generated packet, but only after evaluating the full chain).
std::string fig_6_5_filter_expression();

/// The one influencing variable a sweep moves (Section 3.4).
enum class Axis {
    kRateMbps,  // generator data rate [Mbit/s]
    kBufferKb,  // capture buffer size [kB] at maximum data rate
    kQueues,    // NIC receive queues == cores at a fixed offered load
};

struct AxisLabels {
    const char* column;   // text-table column and JSON x_label
    const char* gnuplot;  // gnuplot xlabel
};
AxisLabels axis_labels(Axis axis);

/// Applies sweep value `x` to one point: rate sets `cfg.rate_mbps`;
/// buffer gives every SUT x kB (FreeBSD half, Section 6.3.1) and forces
/// `cfg.rate_mbps = 0`; queues gives every SUT x cores and x NIC queues.
void apply_axis(Axis axis, double x, std::vector<SutConfig>& suts, RunConfig& cfg);

struct PointResult {
    double x = 0.0;
    RunResult result;
};

/// Runs the measurement cycle at every `xs` value along `axis`.  With a
/// non-null executor the points run concurrently; every point builds its
/// own testbed, so the results are bit-identical at any job count.
///
/// `base.trace` and `base.timeseries` (may be null) go to ONE designated
/// point — the last of the grid, i.e. the deepest overload, and within it
/// rep 0 — which keeps each sink single-writer and its output identical
/// at any job count.  A time series needs a positive
/// `base.sample_interval`.
std::vector<PointResult> sweep(Axis axis, const std::vector<SutConfig>& suts,
                               const RunConfig& base, const std::vector<double>& xs, int reps,
                               const ParallelExecutor* exec = nullptr);

}  // namespace capbench::harness
