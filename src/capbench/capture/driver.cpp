#include "capbench/capture/driver.hpp"

#include "capbench/capture/rss.hpp"

namespace capbench::capture {

void Driver::process(const net::PacketPtr& packet, int queue, int cpu, std::int64_t arrival,
                     std::int64_t handoff) {
    hostsim::Work work = os_->driver_per_packet;
    work += os_->softirq_per_packet;
    work = work.scaled(os_->kernel_cost_multiplier);
    // Only cluster fanout consults the flow hash; mirror/queue modes skip
    // the hash unit entirely (and so does every single-tap configuration).
    const std::uint32_t hash =
        fanout_.mode() == FanoutMode::kCluster ? rss::flow_hash(*packet) : 0;
    const std::size_t tap_count = taps_.size();
    bool keep_bytes = false;
    for (std::size_t i = 0; i < tap_count; ++i) {
        if (fanout_.targets(i, tap_count, queue, hash)) {
            work += taps_[i]->plan(packet);
            keep_bytes = keep_bytes || taps_[i]->keeps_bytes();
        } else {
            taps_[i]->fanout_skip();
        }
    }

    // FreeBSD taps packets inside the interrupt handler; Linux does the
    // demux + clone work in the NET_RX softirq (accounted as system time).
    // Every filter has run, so the completion holds only the packet's
    // record and stamps: the payload goes back to the arena once the NIC
    // ring lets go.  Without bytes to keep, the completion captures plain
    // fields, so InplaceFunction relocates it with a memcpy.
    const auto state = os_->family == OsFamily::kFreeBsd ? hostsim::CpuState::kInterrupt
                                                         : hostsim::CpuState::kSystem;
    if (keep_bytes) {
        machine_->post_kernel_work_on(
            cpu, work, state,
            [this, queue, hash, arrival, handoff, record = CaptureRecord::of(packet, true)] {
                commit(queue, hash, record, arrival, handoff);
            });
    } else {
        machine_->post_kernel_work_on(
            cpu, work, state,
            [this, queue, hash, arrival, handoff, frame_len = packet->frame_len()] {
                commit(queue, hash, CaptureRecord{frame_len, 0, nullptr}, arrival, handoff);
            });
    }
}

void Driver::commit(int queue, std::uint32_t hash, const CaptureRecord& record,
                    std::int64_t arrival, std::int64_t handoff) {
    const std::size_t tap_count = taps_.size();
    for (std::size_t i = 0; i < tap_count; ++i)
        if (fanout_.targets(i, tap_count, queue, hash))
            taps_[i]->commit(record, arrival, handoff);
}

}  // namespace capbench::capture
