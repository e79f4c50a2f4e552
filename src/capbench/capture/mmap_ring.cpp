#include "capbench/capture/mmap_ring.hpp"

#include <algorithm>

#include "capbench/obs/observer.hpp"

namespace capbench::capture {

MmapRing::MmapRing(hostsim::Machine& machine, const OsSpec& os, std::uint64_t ring_bytes,
                   std::uint32_t snaplen, std::uint32_t frame_bytes)
    : machine_(&machine),
      os_(&os),
      slots_(std::max<std::size_t>(16, ring_bytes / std::max(frame_bytes, 256u))),
      snaplen_(snaplen) {}

void MmapRing::install_filter(bpf::Program program) {
    filter_.install(std::move(program));
    if (app_obs() != nullptr)
        app_obs()->filter_installed(filter_.decoded());
}

hostsim::Work MmapRing::plan(const net::PacketPtr& packet, int queue) {
    ++stats_.kernel_seen;
    ++qstats(queue).kernel_seen;
    auto verdict = filter_.run(*packet, snaplen_);
    hostsim::Work work = os_->tap_per_packet;
    work.cycles += verdict.insns * os_->filter_cycles_per_insn;
    if (verdict.accept) {
        // The kernel still copies the packet once, into the mapped ring.
        work.copy_bytes += verdict.caplen;
    }
    pending_.push(verdict);
    return work.scaled(os_->kernel_cost_multiplier);
}

void MmapRing::fanout_skip(int queue) {
    ++stats_.fanout_skipped;
    ++qstats(queue).fanout_skipped;
}

void MmapRing::commit(const net::PacketPtr& packet, int queue) {
    const auto verdict = pending_.pop();
    CaptureStats& qs = qstats(queue);
    if (!verdict.accept) {
        ++stats_.dropped_filter;
        ++qs.dropped_filter;
        if (verdict.aborted) {
            ++stats_.filter_aborts;
            ++qs.filter_aborts;
            if (obs::AppObserver* o = app_obs()) o->filter_aborted();
        }
        return;
    }
    ++stats_.accepted;
    ++qs.accepted;
    if (ring_.size() >= slots_) {
        ++stats_.dropped_buffer;
        ++qs.dropped_buffer;
        return;
    }
    ring_.push_back(Queued{packet, verdict.caplen, queue});
    if (obs::AppObserver* o = app_obs())
        o->enqueued(packet->id(), machine_->sim().now(),
                    static_cast<std::int64_t>(ring_.size()));
    if (reader_ != nullptr) machine_->wake(*reader_);
}

std::optional<StackEndpoint::Batch> MmapRing::fetch(std::size_t max_packets) {
    if (ring_.empty()) return std::nullopt;
    Batch batch;
    const std::size_t n = std::min(max_packets, ring_.size());
    batch.packets = take_spare();
    batch.packets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Queued& q = ring_.front();
        batch.packets.push_back(std::move(q.packet));
        batch.bytes += q.caplen;
        CaptureStats& qs = qstats(q.queue);
        ++qs.delivered;
        qs.delivered_bytes += q.caplen;
        ring_.pop_front();
    }
    // No syscall, no copy: the application reads mapped frames directly.
    batch.fetch_work.cycles = 180.0 * static_cast<double>(n);
    batch.fetch_work.mem_misses = 1.0 * static_cast<double>(n);
    stats_.delivered += n;
    stats_.delivered_bytes += batch.bytes;
    if (obs::AppObserver* o = app_obs()) {
        const sim::SimTime now = machine_->sim().now();
        for (const net::PacketPtr& p : batch.packets) o->delivered(p->id(), now);
        o->fetched(n, static_cast<std::int64_t>(ring_.size()), now);
    }
    return batch;
}

}  // namespace capbench::capture
