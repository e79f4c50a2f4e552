// Packet-lifecycle observer (ISSUE 5 tentpole, part 1).
//
// One `Observer` per measurement run.  The testbed registers each SUT
// (`add_sut`), which hands the NIC a `SutObserver` and each capture
// endpoint an `AppObserver`; the hot paths stamp packets with sim-time at
// NIC arrival, kernel hand-off, capture-stack enqueue and user delivery.
// Stamps travel with the packet, so their memory is O(packets in flight):
// each NIC descriptor-ring slot holds its frame's arrival time, the
// kernel-lane completion carries (arrival, hand-off) to
// `PacketTap::commit`, and each `AppObserver` keeps a FIFO of (arrival,
// enqueue) pairs for the records its endpoint buffers.  Every stack
// delivers in store order and never discards a stored record, so the
// FIFO's front is always the next record fetch() delivers.  Every hook call
// site is `if (obs_) obs_->...`, so a run without an observer pays one
// predictable branch and makes no samples.
//
// At the end of the measurement window the harness freezes the observer
// (later stamps no longer feed the sample sets), snapshots the capture
// counters, and `finalize()` folds everything into a `RunMetrics` whose
// per-app drop buckets sum exactly to the generated packet count.
#pragma once

#include "capbench/capture/tap.hpp"
#include "capbench/obs/metrics.hpp"
#include "capbench/obs/registry.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/profiling/cpusage.hpp"
#include "capbench/sim/ring_buffer.hpp"
#include "capbench/sim/stats.hpp"
#include "capbench/sim/time.hpp"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace capbench::obs {

class Observer;
class SutObserver;

/// Per-capture-app hooks, installed on a `StackEndpoint`.
class AppObserver {
public:
    AppObserver(SutObserver& sut, int index, const capture::CaptureStats& stats)
        : sut_(&sut), index_(index), stats_(&stats) {}

    /// Packet stored in the capture buffer at `t`; it arrived at the NIC at
    /// `arrival` and was handed to the kernel at `handoff` (sim ns).
    /// `occupancy()` gives the stack's post-enqueue buffer fill (bytes or
    /// slots, stack-specific); it is called only when the run is traced.
    template <typename Occupancy>
    void enqueued(std::int64_t arrival, std::int64_t handoff, sim::SimTime t,
                  Occupancy occupancy);

    /// A fetch() delivered the `n` oldest stored packets to the
    /// application; `occupancy()` gives the post-drain fill, as above.
    template <typename Occupancy>
    void fetched(std::size_t n, Occupancy occupancy, sim::SimTime t);

    /// A BPF filter was attached to this endpoint.  Attach time, not the
    /// hot path: bumps the per-SUT `bpf.*` counts (installs, and the
    /// jitted program size as `decoded_insns`), registering each on its
    /// first bump.  `jitted_insns` is 0 under the interpreter tier;
    /// otherwise the filter runs as native code compiled from that many
    /// instructions.
    void filter_installed(std::size_t jitted_insns);

    /// A capture-to-disk writer pipeline attached to this app: registers
    /// a view of the writer's spill count and interns the ring-occupancy
    /// trace name, so pipeline-less runs keep their counter snapshot
    /// byte-identical.
    void disk_writer_attached(const std::uint64_t& spilled);

    /// Writer-ring fill level changed (records queued for the disk).
    void disk_ring_occupancy(sim::SimTime t, std::int64_t occupancy);

private:
    friend class Observer;
    friend class SutObserver;

    /// Throws std::logic_error: a fetch delivered more records than were
    /// stored while this observer watched.
    [[noreturn]] void unstamped_fetch(std::size_t n) const;

    /// A stored record's stamps, in sim ns.  Trivial, so the FIFO's growth
    /// leaves its spare slots uninitialised.
    struct Stored {
        std::int64_t arrival;
        std::int64_t enqueue;
    };

    /// Attach-time filter counts behind the `bpf.*` views.
    struct BpfCounts {
        std::uint64_t filter_installs = 0;
        std::uint64_t jitted_insns = 0;  // emitted as `decoded_insns`
    };

    SutObserver* sut_;
    int index_;
    const capture::CaptureStats* stats_;  // the endpoint's; checked at finalize
    BpfCounts bpf_;
    bool jitted_registered_ = false;
    const char* occupancy_name_ = nullptr;  // interned; null when untraced
    const char* disk_ring_name_ = nullptr;  // interned; null when untraced
    sim::RingBuffer<Stored> stored_;        // one per buffered record, store order
    sim::SampleSet latency_ns_;  // NIC arrival -> delivery
    sim::SampleSet enqueue_ns_;  // kernel hand-off -> enqueue
    sim::SampleSet deliver_ns_;  // enqueue -> delivery
};

/// Per-SUT hooks, installed on the NIC.
class SutObserver {
public:
    /// Registers a `capture.<name>.appN.filter_aborts` view onto each of
    /// `apps`, the endpoints' capture statistics.
    SutObserver(Observer& owner, std::string name, int pid,
                const std::vector<const capture::CaptureStats*>& apps);

    /// A frame that arrived at the NIC at `arrival` (sim ns) leaves the
    /// NIC ring for driver/capture-stack processing at `t`.
    void kernel_handoff(std::int64_t arrival, sim::SimTime t);

    /// The NIC posted an interrupt.
    void irq_raised(sim::SimTime t);

    /// NIC ring fill level changed (sampled at service entry/exit).
    void ring_occupancy(sim::SimTime t, std::size_t frames);

    [[nodiscard]] AppObserver& app(std::size_t i) { return apps_[i]; }
    [[nodiscard]] std::size_t app_count() const { return apps_.size(); }
    [[nodiscard]] int pid() const { return pid_; }
    [[nodiscard]] const std::string& name() const { return name_; }

private:
    friend class Observer;
    friend class AppObserver;

    /// Throws std::logic_error unless each app's stamp FIFO holds one
    /// entry per packet in flight.
    void check_stamps() const;

    Observer* owner_;
    std::string name_;
    int pid_;
    const char* irq_name_ = nullptr;
    const char* ring_name_ = nullptr;
    sim::SampleSet nic_to_kernel_ns_;
    std::deque<AppObserver> apps_;  // deque: stable addresses
};

/// Counter snapshot taken by the harness when the measurement window
/// closes; the headline capture rates and the metrics both read it.
struct SutSnapshot {
    std::uint64_t frames_seen = 0;
    std::uint64_t ring_drops = 0;
    std::uint64_t backlog_drops = 0;
    std::vector<capture::CaptureStats> apps;
    /// Per-app disk-writer ring spills at window close (0 without the
    /// capture-to-disk pipeline).
    std::vector<std::uint64_t> disk_spills;
    std::vector<profiling::UsageSample> cpu_samples;
};

class Observer {
public:
    /// `trace` may be null: metrics only, no timeline.
    explicit Observer(TraceSink* trace = nullptr) : trace_(trace) {}

    Observer(const Observer&) = delete;
    Observer& operator=(const Observer&) = delete;

    /// Registers a SUT and its capture apps, one per entry of `apps` (the
    /// endpoints' statistics, which must outlive finalize()); called from
    /// the testbed build-up, in SUT order (which fixes trace pids and
    /// metrics order).  A name already registered throws
    /// std::invalid_argument: its counters would collide.
    SutObserver& add_sut(const std::string& name,
                         const std::vector<const capture::CaptureStats*>& apps);

    /// Pre-sizes every sample set for `packets` samples so the steady
    /// state performs no allocation (the stamp FIFOs reach their size in
    /// warm-up).
    void reserve(std::size_t packets);

    /// Stops feeding the sample sets; stamps after this make no samples so
    /// the histograms match the frozen counters exactly.
    void freeze() { frozen_ = true; }
    [[nodiscard]] bool frozen() const { return frozen_; }

    [[nodiscard]] TraceSink* trace() { return trace_; }
    /// The run's counter views.  Every viewed count must outlive
    /// finalize(), which takes the snapshot.
    [[nodiscard]] Registry& registry() { return registry_; }
    [[nodiscard]] std::size_t sut_count() const { return suts_.size(); }
    [[nodiscard]] SutObserver& sut(std::size_t i) { return suts_[i]; }

    /// Folds the sample sets + frozen counter snapshots into the run's
    /// metrics.  `snapshots` must be in `add_sut` order; `generated` is the
    /// packet count emitted by the generator.  Consumes the sample sets.
    /// Throws std::logic_error when an app's stamp FIFO does not hold one
    /// entry per packet in flight: accepted - dropped_buffer - delivered
    /// (live counts).
    RunMetrics finalize(const std::vector<SutSnapshot>& snapshots,
                        std::uint64_t generated);

private:
    friend class SutObserver;
    friend class AppObserver;

    TraceSink* trace_;
    Registry registry_;
    std::deque<SutObserver> suts_;  // deque: stable addresses
    bool frozen_ = false;
};

// ---- inline hot paths ----------------------------------------------------

inline void SutObserver::kernel_handoff(std::int64_t arrival, sim::SimTime t) {
    if (!owner_->frozen()) nic_to_kernel_ns_.add(t.ns() - arrival);
}

inline void SutObserver::irq_raised(sim::SimTime t) {
    if (TraceSink* tr = owner_->trace_)
        tr->instant(pid_, kNicTid, irq_name_, irq_name_, t);
}

inline void SutObserver::ring_occupancy(sim::SimTime t, std::size_t frames) {
    if (TraceSink* tr = owner_->trace_)
        tr->counter(pid_, kNicTid, ring_name_, t,
                    static_cast<std::int64_t>(frames));
}

template <typename Occupancy>
void AppObserver::enqueued(std::int64_t arrival, std::int64_t handoff, sim::SimTime t,
                           Occupancy occupancy) {
    stored_.push_back(Stored{arrival, t.ns()});
    if (!sut_->owner_->frozen()) enqueue_ns_.add(t.ns() - handoff);
    if (TraceSink* tr = sut_->owner_->trace_)
        tr->counter(sut_->pid_, kThreadTidBase + index_, occupancy_name_, t,
                    static_cast<std::int64_t>(occupancy()));
}

inline void AppObserver::disk_ring_occupancy(sim::SimTime t,
                                             std::int64_t occupancy) {
    if (TraceSink* tr = sut_->owner_->trace_;
        tr != nullptr && disk_ring_name_ != nullptr)
        tr->counter(sut_->pid_, kThreadTidBase + index_, disk_ring_name_, t,
                    occupancy);
}

template <typename Occupancy>
void AppObserver::fetched(std::size_t n, Occupancy occupancy, sim::SimTime t) {
    if (n > stored_.size()) [[unlikely]] unstamped_fetch(n);
    if (!sut_->owner_->frozen()) {
        const std::int64_t now = t.ns();
        deliver_ns_.add_n(n, [&](std::size_t i) { return now - stored_[i].enqueue; });
        latency_ns_.add_n(n, [&](std::size_t i) { return now - stored_[i].arrival; });
    }
    stored_.drop_front(n);
    if (TraceSink* tr = sut_->owner_->trace_)
        tr->counter(sut_->pid_, kThreadTidBase + index_, occupancy_name_, t,
                    static_cast<std::int64_t>(occupancy()));
}

}  // namespace capbench::obs
