// Simulated-time interval telemetry (ISSUE 10 tentpole).
//
// An `IntervalSampler` rides the simulator clock: every `interval` it
// snapshots gauges (NIC descriptor-ring fill, kernel backlog length,
// capture-buffer fill, disk bring-ring fill) and turns the monotone run
// counters into per-interval deltas (generated / delivered / every drop
// bucket of obs::kDropSites).  The final sample is taken at the exact
// freeze instant of the measurement window, so every delta column
// telescopes to the corresponding aggregate counter — the conservation
// invariant `Σ deltas == finalize aggregate` holds as an integer identity
// and is re-checked in TimeSeries::finalize_against().
//
// Every sample attributes the live counters with obs::attribute_drops, the
// same function the run-end metrics use, and pushes the change since the
// previous sample.  The per-app `drain` column is thus the signed change
// of the in-flight count: packets entering the pipeline push it positive,
// deliveries and drops pull it back, and its column sum is exactly the
// finalize `drop_drain` residual.
//
// Each column is a `Series`, one growable int64 vector, so sampling
// allocates only when a column's capacity doubles (alloc-guard tested) and
// a run without a sampler allocates nothing at all.  Every observed run
// (metrics, trace or time series) runs one sampler: into the caller's
// series at its interval, or into a run-local one at the cpusage cadence.
// It is the run's only CPU sampler; profiling::cpusage() is a window view
// over its per-CPU columns.
//
// On top of the raw series an `OverloadDetector` pass classifies each
// interval — dropping (any terminal overload loss: nic_ring, backlog,
// bpf_store or disk_spill), saturated (≥ kSaturatedOccupancyPct of any
// ring/buffer capacity filled) or healthy — and coalesces consecutive
// dropping intervals into `OverloadEpisode`s annotated with start/end
// sim-time, the dominant drop site and the peak occupancy.  Verdict and
// fanout drops are intended filtering/routing, not overload, so they
// never open an episode (they still participate in conservation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capbench/obs/metrics.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::sim {
class Simulator;
}
namespace capbench::hostsim {
class Machine;
}
namespace capbench::capture {
class Nic;
class StackEndpoint;
}
namespace capbench::load {
class DiskWriterThread;
}

namespace capbench::obs {

class TraceSink;

/// Interval classification thresholds (see OverloadDetector above).
inline constexpr std::int64_t kSaturatedOccupancyPct = 75;

/// Append-only int64 column.
class Series {
public:
    void push(std::int64_t v) { values_.push_back(v); }

    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] std::int64_t at(std::size_t i) const { return values_[i]; }

    /// Sum of all values (the telescoped aggregate of a delta column).
    [[nodiscard]] std::int64_t sum() const;

    /// Largest value; 0 when empty (occupancy gauges never go negative).
    [[nodiscard]] std::int64_t max() const;

private:
    std::vector<std::int64_t> values_;
};

/// What the detector decided about one interval.
enum class IntervalClass : std::uint8_t { kHealthy = 0, kSaturated = 1, kDropping = 2 };

/// A maximal run of consecutive dropping intervals on one SUT.
struct OverloadEpisode {
    std::int64_t start_ns = 0;  // start of the first dropping interval
    std::int64_t end_ns = 0;    // end (sample time) of the last one
    std::size_t first_interval = 0;
    std::size_t intervals = 0;
    /// kDropSites name of the bucket with the largest loss in the episode
    /// (ties resolve in kDropSites order; only overload buckets compete).
    const char* dominant_site = "";
    std::uint64_t dropped = 0;            // terminal overload losses
    std::int64_t peak_occupancy_pct = 0;  // max ring/buffer fill seen
};

struct CpuSeries {
    Series backlog_len;  // gauge: kernel work queued for this CPU
    // Interval deltas of the CPU-state accounting, exact nanoseconds.
    Series user_ns;
    Series system_ns;
    Series interrupt_ns;
    Series idle_ns;  // interval length − busy states, clamped at 0
};

struct QueueSeries {
    Series ring_occupancy;  // gauge: frames in the descriptor ring
};

struct AppSeries {
    Series delivered;  // delta, disk-spill-adjusted like AppMetrics
    Series drop_verdict;
    Series drop_bpf_store;
    Series drop_fanout;
    Series drop_disk_spill;
    Series drain;            // signed in-flight change (see header comment)
    Series buffer_occupancy; // gauge, stack-native units
    Series disk_ring;        // gauge: records in the bring ring (0 = none)
};

struct SutSeries {
    std::string name;
    std::uint64_t nic_ring_capacity = 0;
    std::vector<std::uint64_t> app_buffer_capacity;
    std::vector<std::uint64_t> app_disk_ring_capacity;  // 0 = no writer
    Series drop_nic_ring;  // SUT-level deltas, mirrored into every app
    Series drop_backlog;   // by the conservation identity
    std::vector<QueueSeries> queues;
    std::vector<CpuSeries> cpus;
    std::vector<AppSeries> apps;
    Series classification;  // IntervalClass per interval (detector output)
    std::vector<OverloadEpisode> episodes;

    /// Terminal overload losses at interval k: nic_ring + backlog + every
    /// app's bpf_store + disk_spill (NOT verdict/fanout — those are
    /// intended filtering/routing).
    [[nodiscard]] std::int64_t overload_loss_at(std::size_t k) const;
};

/// The collected run telemetry.  Owned by the caller of the measurement
/// (like TraceSink); one TimeSeries belongs to exactly one run.
class TimeSeries {
public:
    sim::Duration interval{};  // configured tick; last interval may be shorter
    Series time_ns;            // sample timestamps (interval ends)
    Series generated;          // generator delta per interval
    std::vector<SutSeries> suts;

    /// Aggregates frozen at finalize, for consumers that re-check
    /// conservation without access to the RunMetrics (indexed like
    /// kDropSites).
    using AppTotals = AppCounts;
    struct SutTotals {
        std::vector<AppTotals> apps;
    };
    std::uint64_t generated_total = 0;
    std::vector<SutTotals> totals;
    bool finalized = false;

    [[nodiscard]] std::size_t sample_count() const { return time_ns.size(); }

    /// Verifies the conservation invariant against the finalize
    /// aggregates and freezes the totals for downstream consumers.
    /// Throws std::logic_error when any delta column does not sum to its
    /// aggregate counter exactly.
    void finalize_against(const RunMetrics& metrics);
};

/// Gauge/counter sources the sampler reads; all pointers must outlive it.
struct SamplerSources {
    struct App {
        const capture::StackEndpoint* endpoint = nullptr;
        const load::DiskWriterThread* writer = nullptr;  // null = no pipeline
    };
    struct Sut {
        std::string name;
        const capture::Nic* nic = nullptr;
        const hostsim::Machine* machine = nullptr;
        int trace_pid = 0;  // Observer pid of this SUT (index + 1)
        std::vector<App> apps;
    };
    /// Monotone generator packet counter (GenStats::packets_sent).
    const std::uint64_t* generated = nullptr;
    std::vector<Sut> suts;
};

/// Clock-driven sampler.  start() schedules a recurring tick; stop() takes
/// the final (freeze-instant) sample and runs the overload detector.  With
/// a non-null `trace`, each tick also emits Perfetto counter tracks and
/// stop() adds one slice per overload episode, so the curves render next
/// to the event timeline.
class IntervalSampler {
public:
    IntervalSampler(sim::Simulator& sim, sim::Duration interval, SamplerSources sources,
                    TimeSeries& out, TraceSink* trace = nullptr);

    void start();
    void stop();

    [[nodiscard]] bool running() const { return running_; }

private:
    void tick();
    void sample_now();

    struct PrevCpu {
        std::int64_t user_ns = 0;
        std::int64_t system_ns = 0;
        std::int64_t interrupt_ns = 0;
    };
    struct PrevSut {
        std::uint64_t ring_drops = 0;
        std::uint64_t backlog_drops = 0;
        std::vector<AppCounts> apps;
        std::vector<PrevCpu> cpus;
    };
    /// Interned Perfetto counter-track names; empty when untraced.
    struct TraceNames {
        std::vector<const char*> queue_ring;     // per queue
        std::vector<const char*> cpu_backlog;    // per cpu
        std::vector<const char*> cpu_user_pct;   // per cpu
        std::vector<const char*> cpu_system_pct; // per cpu
        std::vector<const char*> cpu_irq_pct;    // per cpu
        std::vector<const char*> app_buffer;     // per app
        std::vector<const char*> app_disk_ring;  // per app
        std::vector<const char*> app_delivered;  // per app
        const char* losses = nullptr;            // per-SUT overload losses
    };

    sim::Simulator* sim_;
    sim::Duration interval_;
    SamplerSources sources_;
    TimeSeries* out_;
    TraceSink* trace_;
    const char* trace_generated_ = nullptr;
    std::uint64_t prev_generated_ = 0;
    std::vector<PrevSut> prev_;
    std::vector<TraceNames> trace_names_;
    sim::SimTime last_sample_{};
    bool running_ = false;
};

}  // namespace capbench::obs
