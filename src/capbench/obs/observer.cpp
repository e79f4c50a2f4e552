#include "capbench/obs/observer.hpp"

#include <stdexcept>
#include <utility>

#include "capbench/bpf/decoded.hpp"

namespace capbench::obs {

void AppObserver::filter_installed(const bpf::DecodedProgram* decoded) {
    // One install per endpoint per run and insertion-ordered counter
    // names, so the metrics snapshot stays byte-stable across --jobs.
    Registry& reg = sut_->owner_->registry_;
    const std::string prefix =
        "bpf." + sut_->name_ + ".app" + std::to_string(index_);
    reg.counter(prefix + ".filter_installs").inc();
    if (decoded != nullptr) {
        reg.counter(prefix + ".decoded_insns").inc(decoded->insns.size());
        reg.counter(prefix + ".dead_stores_elided").inc(decoded->stats.dead_stores);
        reg.counter(prefix + ".unchecked_loads").inc(decoded->stats.unchecked_loads);
    }
}

void AppObserver::disk_writer_attached() {
    Registry& reg = sut_->owner_->registry_;
    disk_spill_ = &reg.counter("capture." + sut_->name_ + ".app" +
                               std::to_string(index_) + ".disk_spills");
    if (TraceSink* tr = sut_->owner_->trace_)
        disk_ring_name_ =
            tr->intern("diskring:" + sut_->name_ + "/app" + std::to_string(index_));
}

SutObserver::SutObserver(Observer& owner, std::string name, int pid,
                         std::size_t app_count)
    : owner_(&owner), name_(std::move(name)), pid_(pid) {
    for (std::size_t i = 0; i < app_count; ++i) {
        apps_.emplace_back(*this, static_cast<int>(i));
        apps_.back().aborted_ = &owner.registry_.counter(
            "capture." + name_ + ".app" + std::to_string(i) + ".filter_aborts");
    }
    if (TraceSink* tr = owner_->trace_) {
        irq_name_ = tr->intern("irq");
        ring_name_ = tr->intern("nic_ring");
        tr->set_process_name(pid_, "sut:" + name_);
        tr->set_thread_name(pid_, kNicTid, "nic/irq");
        tr->set_thread_name(pid_, kKernelTid, "kernel");
        for (std::size_t i = 0; i < app_count; ++i) {
            apps_[i].occupancy_name_ =
                tr->intern("buf:" + name_ + "/app" + std::to_string(i));
        }
    }
}

SutObserver& Observer::add_sut(const std::string& name, std::size_t app_count) {
    const int pid = static_cast<int>(suts_.size()) + 1;
    suts_.emplace_back(*this, name, pid, app_count);
    return suts_.back();
}

void Observer::reserve(std::size_t packets) {
    for (SutObserver& sut : suts_) {
        sut.arrival_at_.assign(packets, -1);
        sut.handoff_at_.assign(packets, -1);
        sut.nic_to_kernel_ns_.reserve(packets);
        for (AppObserver& app : sut.apps_) {
            app.enqueue_at_.assign(packets, -1);
            app.latency_ns_.reserve(packets);
            app.enqueue_ns_.reserve(packets);
            app.deliver_ns_.reserve(packets);
        }
    }
}

RunMetrics Observer::finalize(const std::vector<SutSnapshot>& snapshots,
                              std::uint64_t generated) {
    if (snapshots.size() != suts_.size())
        throw std::logic_error("Observer::finalize: snapshot count mismatch");
    RunMetrics out;
    out.enabled = true;
    out.generated = generated;
    out.suts.reserve(suts_.size());
    for (std::size_t s = 0; s < suts_.size(); ++s) {
        SutObserver& sut = suts_[s];
        const SutSnapshot& snap = snapshots[s];
        if (snap.apps.size() != sut.apps_.size())
            throw std::logic_error("Observer::finalize: app count mismatch");
        SutMetrics m;
        m.name = sut.name_;
        m.offered = snap.frames_seen;
        m.ring_drops = snap.ring_drops;
        m.backlog_drops = snap.backlog_drops;
        m.nic_to_kernel_ns = std::move(sut.nic_to_kernel_ns_);
        m.cpu_samples = snap.cpu_samples;
        m.apps.reserve(sut.apps_.size());
        for (std::size_t a = 0; a < sut.apps_.size(); ++a) {
            AppObserver& app = sut.apps_[a];
            const capture::CaptureStats& st = snap.apps[a];
            AppMetrics am;
            // A record spilled by the disk-writer ring was handed to the
            // app (counted in st.delivered) but never persisted: it moves
            // from `delivered` into the `disk_spill` bucket, keeping the
            // closed identity exact.
            const std::uint64_t spill =
                a < snap.disk_spills.size() ? snap.disk_spills[a] : 0;
            if (spill > st.delivered)
                throw std::logic_error(
                    "Observer::finalize: disk spills exceed delivered count");
            am.delivered = st.delivered - spill;
            am.drop_nic_ring = snap.ring_drops;
            am.drop_backlog = snap.backlog_drops;
            am.drop_verdict = st.dropped_filter;
            am.drop_bpf_store = st.dropped_buffer;
            am.drop_fanout = st.fanout_skipped;
            am.drop_disk_spill = spill;
            // Everything the generator emitted that neither reached the
            // app nor hit a terminal drop bucket is still in flight (NIC
            // ring, uncommitted verdict, capture buffer) — the "drain"
            // bucket.  Computed as the residual of monotone counters, so
            // the closed identity generated == delivered + Σdrops holds
            // exactly; it can only go negative if the accounting itself is
            // broken, which we surface rather than clamp away.
            const std::int64_t drain =
                static_cast<std::int64_t>(generated) -
                static_cast<std::int64_t>(st.delivered + snap.ring_drops +
                                          snap.backlog_drops +
                                          st.dropped_filter + st.dropped_buffer +
                                          st.fanout_skipped);
            if (drain < 0)
                throw std::logic_error(
                    "Observer::finalize: drop buckets exceed generated count");
            am.drop_drain = static_cast<std::uint64_t>(drain);
            am.latency_ns = std::move(app.latency_ns_);
            am.enqueue_ns = std::move(app.enqueue_ns_);
            am.deliver_ns = std::move(app.deliver_ns_);
            m.apps.push_back(std::move(am));
        }
        out.suts.push_back(std::move(m));
    }
    out.counters = registry_.snapshot();
    return out;
}

}  // namespace capbench::obs
