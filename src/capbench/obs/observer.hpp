// Packet-lifecycle observer (ISSUE 5 tentpole, part 1).
//
// One `Observer` per measurement run.  The testbed registers each SUT
// (`add_sut`), which hands the NIC a `SutObserver` and each capture
// endpoint an `AppObserver`; the hot paths stamp packets with sim-time at
// NIC arrival, kernel hand-off, capture-stack enqueue and user delivery.
// Stamps are id-indexed flat arrays (packet ids are sequential per
// generator), pre-sized by `reserve()`, so a stamp is a bounds check and a
// store — and every hook call site is `if (obs_) obs_->...`, so a run
// without an observer pays one predictable branch.
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
#include "capbench/sim/stats.hpp"
#include "capbench/sim/time.hpp"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace capbench::bpf {
struct DecodedProgram;
}

namespace capbench::obs {

class Observer;
class SutObserver;

/// Per-capture-app hooks, installed on a `StackEndpoint`.
class AppObserver {
public:
    AppObserver(SutObserver& sut, int index) : sut_(&sut), index_(index) {}

    /// Packet accepted into the capture buffer. `occupancy` is the
    /// stack's post-enqueue buffer fill (bytes or slots, stack-specific).
    void enqueued(std::uint64_t id, sim::SimTime t, std::int64_t occupancy);

    /// Packet handed to the application by fetch().
    void delivered(std::uint64_t id, sim::SimTime t);

    /// A fetch() drained `n` packets; `occupancy` is the post-drain fill.
    void fetched(std::size_t n, std::int64_t occupancy, sim::SimTime t);

    /// The filter VM aborted on a packet (out-of-bounds load, division by
    /// zero) instead of returning a verdict.
    void filter_aborted() {
        if (aborted_ != nullptr) aborted_->inc();
    }

    /// A BPF filter was attached to this endpoint.  Attach time, not the
    /// hot path: registers/bumps the per-SUT `bpf.*` registry counters
    /// (installs, decoded program size, dead stores elided, unchecked
    /// loads).  `decoded` is null under the interpreter tier; otherwise the
    /// filter runs as native code compiled from it.
    void filter_installed(const bpf::DecodedProgram* decoded);

    /// A capture-to-disk writer pipeline attached to this app.  Registers
    /// the spill counter and interns the ring-occupancy trace name lazily,
    /// so pipeline-less runs keep their counter snapshot byte-identical.
    void disk_writer_attached();

    /// The app's writer ring rejected a record under a drop spill policy.
    void disk_spilled() {
        if (disk_spill_ != nullptr) disk_spill_->inc();
    }

    /// Writer-ring fill level changed (records queued for the disk).
    void disk_ring_occupancy(sim::SimTime t, std::int64_t occupancy);

private:
    friend class Observer;
    friend class SutObserver;

    SutObserver* sut_;
    int index_;
    Counter* aborted_ = nullptr;  // registry-owned; set by SutObserver
    Counter* disk_spill_ = nullptr;  // registered on disk_writer_attached()
    const char* occupancy_name_ = nullptr;  // interned; null when untraced
    const char* disk_ring_name_ = nullptr;  // interned; null when untraced
    std::vector<std::int64_t> enqueue_at_;
    sim::SampleSet latency_ns_;  // NIC arrival -> delivery
    sim::SampleSet enqueue_ns_;  // kernel hand-off -> enqueue
    sim::SampleSet deliver_ns_;  // enqueue -> delivery
};

/// Per-SUT hooks, installed on the NIC.
class SutObserver {
public:
    SutObserver(Observer& owner, std::string name, int pid, std::size_t app_count);

    /// Frame arrived at the NIC (before any drop decision).
    void nic_arrival(std::uint64_t id, sim::SimTime t);

    /// Frame leaves the NIC ring for driver/capture-stack processing.
    void kernel_handoff(std::uint64_t id, sim::SimTime t);

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

    Observer* owner_;
    std::string name_;
    int pid_;
    const char* irq_name_ = nullptr;
    const char* ring_name_ = nullptr;
    std::vector<std::int64_t> arrival_at_;
    std::vector<std::int64_t> handoff_at_;
    sim::SampleSet nic_to_kernel_ns_;
    std::deque<AppObserver> apps_;  // deque: stable addresses
};

/// Counter snapshot taken by the harness when the measurement window
/// closes (same instant the headline capture counters are frozen).
struct SutSnapshot {
    std::uint64_t frames_seen = 0;
    std::uint64_t ring_drops = 0;
    std::uint64_t backlog_drops = 0;
    std::vector<capture::CaptureStats> apps;
    /// Per-app disk-writer ring spills at window close; empty when the SUT
    /// runs without the capture-to-disk pipeline.
    std::vector<std::uint64_t> disk_spills;
    std::vector<profiling::UsageSample> cpu_samples;
};

class Observer {
public:
    /// `trace` may be null: metrics only, no timeline.
    explicit Observer(TraceSink* trace = nullptr) : trace_(trace) {}

    Observer(const Observer&) = delete;
    Observer& operator=(const Observer&) = delete;

    /// Registers a SUT and its capture apps; called from the testbed
    /// build-up, in SUT order (which fixes trace pids and metrics order).
    SutObserver& add_sut(const std::string& name, std::size_t app_count);

    /// Pre-sizes every stamp array and sample set for `packets` ids so the
    /// steady state performs no allocation.
    void reserve(std::size_t packets);

    /// Stops feeding the sample sets; stamps after this are ignored so the
    /// histograms match the frozen counters exactly.
    void freeze() { frozen_ = true; }
    [[nodiscard]] bool frozen() const { return frozen_; }

    [[nodiscard]] TraceSink* trace() { return trace_; }
    [[nodiscard]] Registry& registry() { return registry_; }
    [[nodiscard]] std::size_t sut_count() const { return suts_.size(); }
    [[nodiscard]] SutObserver& sut(std::size_t i) { return suts_[i]; }

    /// Folds stamps + frozen counter snapshots into the run's metrics.
    /// `snapshots` must be in `add_sut` order; `generated` is the packet
    /// count emitted by the generator.  Consumes the sample sets.
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

namespace detail {
inline void stamp(std::vector<std::int64_t>& v, std::uint64_t id,
                  sim::SimTime t) {
    if (id >= v.size()) v.resize(id + 1, -1);
    v[id] = t.ns();
}

inline std::int64_t stamp_at(const std::vector<std::int64_t>& v,
                             std::uint64_t id) {
    return id < v.size() ? v[id] : -1;
}
}  // namespace detail

inline void SutObserver::nic_arrival(std::uint64_t id, sim::SimTime t) {
    if (!owner_->frozen()) detail::stamp(arrival_at_, id, t);
}

inline void SutObserver::kernel_handoff(std::uint64_t id, sim::SimTime t) {
    if (owner_->frozen()) return;
    detail::stamp(handoff_at_, id, t);
    if (const std::int64_t arr = detail::stamp_at(arrival_at_, id); arr >= 0)
        nic_to_kernel_ns_.add(static_cast<double>(t.ns() - arr));
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

inline void AppObserver::enqueued(std::uint64_t id, sim::SimTime t,
                                  std::int64_t occupancy) {
    if (!sut_->owner_->frozen()) {
        detail::stamp(enqueue_at_, id, t);
        if (const std::int64_t ho = detail::stamp_at(sut_->handoff_at_, id);
            ho >= 0)
            enqueue_ns_.add(static_cast<double>(t.ns() - ho));
    }
    if (TraceSink* tr = sut_->owner_->trace_)
        tr->counter(sut_->pid_, kThreadTidBase + index_, occupancy_name_, t,
                    occupancy);
}

inline void AppObserver::delivered(std::uint64_t id, sim::SimTime t) {
    if (sut_->owner_->frozen()) return;
    if (const std::int64_t enq = detail::stamp_at(enqueue_at_, id); enq >= 0)
        deliver_ns_.add(static_cast<double>(t.ns() - enq));
    if (const std::int64_t arr = detail::stamp_at(sut_->arrival_at_, id);
        arr >= 0)
        latency_ns_.add(static_cast<double>(t.ns() - arr));
}

inline void AppObserver::disk_ring_occupancy(sim::SimTime t,
                                             std::int64_t occupancy) {
    if (TraceSink* tr = sut_->owner_->trace_;
        tr != nullptr && disk_ring_name_ != nullptr)
        tr->counter(sut_->pid_, kThreadTidBase + index_, disk_ring_name_, t,
                    occupancy);
}

inline void AppObserver::fetched(std::size_t n, std::int64_t occupancy,
                                 sim::SimTime t) {
    (void)n;
    if (TraceSink* tr = sut_->owner_->trace_)
        tr->counter(sut_->pid_, kThreadTidBase + index_, occupancy_name_, t,
                    occupancy);
}

}  // namespace capbench::obs
