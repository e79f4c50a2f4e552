// Per-run observability results (ISSUE 5 tentpole, parts 1 + 3).
//
// `RunMetrics` is what a measurement run hands back when
// `RunConfig::collect_metrics` is set: per-SUT/per-app drop attribution,
// packet-lifecycle latency sample sets, CPU usage samples and the counter
// registry snapshot.  The drop taxonomy is closed — every generated packet
// lands in exactly one bucket, so for each app
//
//     generated == delivered + nic_ring + backlog + verdict + bpf_store
//                  + fanout + disk_spill + drain
//
// holds as an exact integer identity (`drain` is the residual still in
// flight — NIC ring, uncommitted verdicts or capture buffers — when the
// measurement window closes; `disk_spill` counts records the capture-to-
// disk writer ring rejected after delivery, so they are not in
// `delivered`).
#pragma once

#include "capbench/profiling/cpusage.hpp"
#include "capbench/sim/stats.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace capbench::capture {
struct CaptureStats;
}

namespace capbench::obs {

/// One capture app (session) on one SUT.
struct AppMetrics {
    std::uint64_t delivered = 0;

    // Drop attribution.  `nic_ring` and `backlog` happen before the
    // per-app fan-out and are mirrored into every app of the SUT.
    std::uint64_t drop_nic_ring = 0;
    std::uint64_t drop_backlog = 0;
    std::uint64_t drop_verdict = 0;    // rejected by the BPF filter
    std::uint64_t drop_bpf_store = 0;  // capture buffer full / too small
    std::uint64_t drop_fanout = 0;     // routed to another app by the fanout group
    std::uint64_t drop_disk_spill = 0; // spilled by the disk-writer ring
    std::uint64_t drop_drain = 0;      // still in flight at window close

    [[nodiscard]] std::uint64_t drops_total() const;

    // Lifecycle latencies, in sim nanoseconds.
    sim::SampleSet latency_ns;  // NIC arrival -> user delivery
    sim::SampleSet enqueue_ns;  // kernel hand-off -> capture-stack enqueue
    sim::SampleSet deliver_ns;  // enqueue -> user delivery
};

/// One named drop bucket of the closed taxonomy above, addressed as an
/// AppMetrics member pointer so every consumer (metric JSON, time-series
/// deltas, tests) iterates the same table instead of repeating the string
/// literals — a future bucket added here reaches all of them at once.
struct DropSite {
    const char* name;
    std::uint64_t AppMetrics::* member;
};

/// Every drop bucket, in the emission order of `capbench.metrics.v1`.
inline constexpr std::array<DropSite, 7> kDropSites{{
    {"nic_ring", &AppMetrics::drop_nic_ring},
    {"backlog", &AppMetrics::drop_backlog},
    {"verdict", &AppMetrics::drop_verdict},
    {"bpf_store", &AppMetrics::drop_bpf_store},
    {"fanout", &AppMetrics::drop_fanout},
    {"disk_spill", &AppMetrics::drop_disk_spill},
    {"drain", &AppMetrics::drop_drain},
}};

inline std::uint64_t AppMetrics::drops_total() const {
    std::uint64_t total = 0;
    for (const DropSite& site : kDropSites) total += this->*site.member;
    return total;
}

/// Position of the bucket named `name` in kDropSites; an unknown name
/// fails to compile.
consteval std::size_t drop_index(std::string_view name) {
    for (std::size_t d = 0; d < kDropSites.size(); ++d)
        if (name == kDropSites[d].name) return d;
    throw std::invalid_argument("drop_index: unknown drop site");
}

/// One app's closed ledger at one instant: `delivered` (disk-spill
/// adjusted) and the drop buckets, indexed like kDropSites.
struct AppCounts {
    std::uint64_t delivered = 0;
    std::array<std::uint64_t, kDropSites.size()> drops{};
};

/// The one drop attribution: maps an app's capture counters, its SUT's
/// NIC ring and kernel backlog drops (mirrored into every app), its
/// disk-writer spills and the packets generated so far onto the closed
/// taxonomy, with `drain` as the residual.  Every consumer — run-end
/// metrics, per-interval time-series deltas, headline capture rates —
/// reads this.  Throws std::logic_error when spills exceed deliveries or
/// the buckets exceed `generated` (broken accounting, never clamped).
[[nodiscard]] AppCounts attribute_drops(const capture::CaptureStats& stats,
                                        std::uint64_t ring_drops,
                                        std::uint64_t backlog_drops,
                                        std::uint64_t disk_spills,
                                        std::uint64_t generated);

struct SutMetrics {
    std::string name;
    std::uint64_t offered = 0;  // frames seen at the NIC
    std::uint64_t ring_drops = 0;
    std::uint64_t backlog_drops = 0;
    sim::SampleSet nic_to_kernel_ns;  // arrival -> IRQ/softirq hand-off
    std::vector<AppMetrics> apps;
    std::vector<profiling::UsageSample> cpu_samples;
};

struct RunMetrics {
    bool enabled = false;
    std::uint64_t generated = 0;
    std::vector<SutMetrics> suts;
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// Accumulates another rep of the same configuration: counts are raw
    /// sums (never averaged, so the drop identity stays exact), sample
    /// sets and CPU samples are concatenated, counters merged by name.
    /// Throws std::logic_error on shape mismatch or a summarized set.
    void merge(const RunMetrics& other);

    /// Reduces every latency set to its summary and releases its samples
    /// (sim::SampleSet::summarize); done once the last rep is merged.
    void summarize();
};

}  // namespace capbench::obs
