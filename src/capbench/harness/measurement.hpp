// The measurement cycle of Section 3.4 / Figure 3.2:
//   1. start capturing + profiling applications on all sniffers,
//   2. read the switch packet counters,
//   3. run the packet generation,
//   4. read the counters again,
//   5. stop the applications and collect statistics.
// Repeated several times per data rate to avoid outliers; the capture rate
// is the percentage of generated packets each application received
// (Section 6.2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "capbench/harness/testbed.hpp"
#include "capbench/obs/metrics.hpp"
#include "capbench/sim/stats.hpp"

namespace capbench::obs {
class TimeSeries;
class TraceSink;
}

namespace capbench::harness {

struct RunConfig {
    double rate_mbps = 0.0;        // 0 = maximum speed (no inter-packet gap)
    std::uint64_t packets = 100'000;
    std::uint64_t seed = 1;
    bool full_bytes = false;       // real frame contents (filter experiments)
    bool use_mwn_dist = true;      // thesis workload; false = fixed size
    std::uint32_t fixed_size = 1500;
    /// Link speed in Gbit/s (10 for the Section 7.2 10-GbE extension).
    double link_gbps = 1.0;
    /// Distinct UDP flows the generator cycles through (GenConfig::
    /// flow_count).  1 = the classic single-flow traffic; multi-queue RSS
    /// scenarios need many flows to spread across receive queues.
    std::uint32_t flow_count = 1;
    /// Round-robin load distribution instead of the passive splitter
    /// (Section 7.2's distributed-analysis extension).
    bool distribute_round_robin = false;
    /// Kept only so existing code naming it compiles; see EventQueueBackend.
    sim::EventQueueBackend event_queue = sim::EventQueueBackend::kHeap;
    sim::Duration warmup = sim::milliseconds(50);
    /// Time between the last generated packet and stopping the capture
    /// applications (step 5 of Figure 3.2 follows generation immediately;
    /// this models the ssh/stop.sh delay).  Packets still queued in capture
    /// buffers when the applications stop do not count as captured.
    sim::Duration drain = sim::milliseconds(100);
    /// Collect packet-lifecycle metrics into RunResult::metrics.  Off by
    /// default: every hook stays disabled and results/goldens are
    /// byte-identical to an unobserved run.
    bool collect_metrics = false;
    /// Timeline sink for this run (Chrome trace-event JSON); non-null
    /// implies metrics collection.  The sink must outlive the run.
    obs::TraceSink* trace = nullptr;
    /// cpusage sampling interval while metrics are on.  The thesis tool
    /// samples every 500 ms; the default here is shorter so the short
    /// simulated windows of CI-scale runs still produce samples.
    sim::Duration cpusage_interval = sim::milliseconds(10);
    /// Interval time-series telemetry (obs/timeseries.hpp): with a
    /// non-null sink AND a positive sample_interval, an IntervalSampler
    /// snapshots gauges and counter deltas every tick and at the freeze
    /// instant.  A sink without a positive interval throws
    /// std::invalid_argument; an interval without a sink is inert, so the
    /// default (off) keeps every result byte-identical.  Like `trace`,
    /// a non-null sink implies metrics collection and must outlive the
    /// run; run_repeated samples rep 0 only.
    sim::Duration sample_interval = sim::Duration::zero();
    obs::TimeSeries* timeseries = nullptr;
    /// Square-wave generator modulation (the ext_overload_pulse
    /// workload), forwarded to GenConfig: every `burst_period` the target
    /// rate is multiplied by `burst_multiplier` for `burst_duration`.
    /// Period zero (default) = classic steady pacing.
    sim::Duration burst_period = sim::Duration::zero();
    sim::Duration burst_duration = sim::Duration::zero();
    double burst_multiplier = 10.0;
};

struct SutRunResult {
    std::string name;
    std::vector<double> per_app_capture_pct;  // delivered / generated * 100
    double capture_worst_pct = 0.0;
    double capture_avg_pct = 0.0;
    double capture_best_pct = 0.0;
    double cpu_pct = 0.0;  // machine utilization during the generation window
    std::uint64_t nic_ring_drops = 0;
    std::uint64_t backlog_drops = 0;
    std::uint64_t buffer_drops = 0;  // summed over apps
};

struct RunResult {
    std::uint64_t generated = 0;     // from the switch counters
    double offered_mbps = 0.0;       // achieved generator rate
    /// Simulator events executed for this run — a perf metric that
    /// perfbench reads (`sim.events`), deliberately NOT part of the
    /// scenario JSON schema (it would break byte-stable figures output).
    std::uint64_t events_executed = 0;
    std::vector<SutRunResult> suts;
    /// Lifecycle metrics; `metrics.enabled` only when the run observed.
    /// Across run_repeated reps these are raw sums (never averaged), so the
    /// per-app drop identity stays exact.
    obs::RunMetrics metrics;
};

/// One complete measurement (steps 1-5) on a freshly built testbed.
RunResult run_once(const std::vector<SutConfig>& suts, const RunConfig& config);

/// Repeats run_once `reps` times with varied seeds and averages.  This is
/// the "repeat measurement n times" loop of Figure 3.2 (the thesis uses 7).
RunResult run_repeated(const std::vector<SutConfig>& suts, const RunConfig& config, int reps);

}  // namespace capbench::harness
