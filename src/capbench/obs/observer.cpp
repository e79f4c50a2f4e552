#include "capbench/obs/observer.hpp"

#include <stdexcept>
#include <utility>

#include "capbench/bpf/decoded.hpp"

namespace capbench::obs {

void AppObserver::filter_installed(const bpf::DecodedProgram* decoded) {
    // One install per endpoint per run and insertion-ordered views, so the
    // metrics snapshot stays byte-stable across --jobs.
    Registry& reg = sut_->owner_->registry_;
    const std::string prefix =
        "bpf." + sut_->name_ + ".app" + std::to_string(index_);
    if (bpf_.filter_installs++ == 0)
        reg.add(prefix + ".filter_installs", bpf_.filter_installs);
    if (decoded == nullptr) return;
    if (!decoded_registered_) {
        decoded_registered_ = true;
        reg.add(prefix + ".decoded_insns", bpf_.decoded_insns);
        reg.add(prefix + ".dead_stores_elided", bpf_.dead_stores_elided);
        reg.add(prefix + ".unchecked_loads", bpf_.unchecked_loads);
    }
    bpf_.decoded_insns += decoded->insns.size();
    bpf_.dead_stores_elided += decoded->stats.dead_stores;
    bpf_.unchecked_loads += decoded->stats.unchecked_loads;
}

void AppObserver::disk_writer_attached(const std::uint64_t& spilled) {
    sut_->owner_->registry_.add(
        "capture." + sut_->name_ + ".app" + std::to_string(index_) + ".disk_spills", spilled);
    if (TraceSink* tr = sut_->owner_->trace_)
        disk_ring_name_ =
            tr->intern("diskring:" + sut_->name_ + "/app" + std::to_string(index_));
}

void AppObserver::unstamped_fetch(std::size_t n) const {
    throw std::logic_error("AppObserver::fetched: " + std::to_string(n) +
                           " records delivered but " + std::to_string(stored_.size()) +
                           " stored under observation");
}

SutObserver::SutObserver(Observer& owner, std::string name, int pid,
                         const std::vector<const capture::CaptureStats*>& apps)
    : owner_(&owner), name_(std::move(name)), pid_(pid) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
        apps_.emplace_back(*this, static_cast<int>(i), *apps[i]);
        owner.registry_.add("capture." + name_ + ".app" + std::to_string(i) + ".filter_aborts",
                            apps[i]->filter_aborts);
    }
    if (TraceSink* tr = owner_->trace_) {
        irq_name_ = tr->intern("irq");
        ring_name_ = tr->intern("nic_ring");
        tr->set_process_name(pid_, "sut:" + name_);
        tr->set_thread_name(pid_, kNicTid, "nic/irq");
        tr->set_thread_name(pid_, kKernelTid, "kernel");
        for (std::size_t i = 0; i < apps.size(); ++i) {
            apps_[i].occupancy_name_ =
                tr->intern("buf:" + name_ + "/app" + std::to_string(i));
        }
    }
}

void SutObserver::check_stamps() const {
    // A FIFO that drifted from its buffer would pair every later sample
    // with another packet's stamps.
    for (const AppObserver& app : apps_) {
        const capture::CaptureStats& c = *app.stats_;
        const std::uint64_t held = c.accepted - c.dropped_buffer - c.delivered;
        if (app.stored_.size() != held)
            throw std::logic_error("Observer::finalize: " + name_ + " app" +
                                   std::to_string(app.index_) + " holds " +
                                   std::to_string(app.stored_.size()) + " stamps for " +
                                   std::to_string(held) + " packets in flight");
    }
}

SutObserver& Observer::add_sut(const std::string& name,
                               const std::vector<const capture::CaptureStats*>& apps) {
    for (const SutObserver& sut : suts_)
        if (sut.name_ == name)
            throw std::invalid_argument("Observer::add_sut: SUT name '" + name +
                                        "' is already registered");
    const int pid = static_cast<int>(suts_.size()) + 1;
    suts_.emplace_back(*this, name, pid, apps);
    return suts_.back();
}

void Observer::reserve(std::size_t packets) {
    for (SutObserver& sut : suts_) {
        sut.nic_to_kernel_ns_.reserve(packets);
        for (AppObserver& app : sut.apps_) {
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
    for (const SutObserver& sut : suts_) sut.check_stamps();
    RunMetrics out;
    out.enabled = true;
    out.generated = generated;
    out.suts.reserve(suts_.size());
    for (std::size_t s = 0; s < suts_.size(); ++s) {
        SutObserver& sut = suts_[s];
        const SutSnapshot& snap = snapshots[s];
        if (snap.apps.size() != sut.apps_.size() ||
            snap.disk_spills.size() != sut.apps_.size())
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
            const AppCounts c = attribute_drops(snap.apps[a], snap.ring_drops,
                                                snap.backlog_drops, snap.disk_spills[a],
                                                generated);
            AppMetrics am;
            am.delivered = c.delivered;
            for (std::size_t d = 0; d < kDropSites.size(); ++d)
                am.*kDropSites[d].member = c.drops[d];
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
