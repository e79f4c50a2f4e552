#include "capbench/capture/bsd_bpf.hpp"

#include <algorithm>
#include <utility>

#include "capbench/obs/observer.hpp"

namespace capbench::capture {

BsdBpfDev::BsdBpfDev(hostsim::Machine& machine, const OsSpec& os, std::uint64_t buffer_bytes,
                     std::uint32_t snaplen)
    : machine_(&machine), os_(&os), buffer_bytes_(buffer_bytes), snaplen_(snaplen) {}

void BsdBpfDev::install_filter(bpf::Program program) {
    filter_.install(std::move(program));
    if (app_obs() != nullptr)
        app_obs()->filter_installed(filter_.decoded());
}

std::uint64_t BsdBpfDev::slot_bytes(std::uint32_t caplen) const {
    // Each packet occupies its capture length plus the bpf header, padded
    // to word alignment (BPF_WORDALIGN).
    const std::uint64_t raw = caplen + os_->bpf_hdr_bytes;
    return (raw + 3) & ~std::uint64_t{3};
}

hostsim::Work BsdBpfDev::plan(const net::PacketPtr& packet, int queue) {
    ++stats_.kernel_seen;
    ++qstats(queue).kernel_seen;
    auto verdict = filter_.run(*packet, snaplen_);
    hostsim::Work work = os_->tap_per_packet;
    work.cycles += verdict.insns * os_->filter_cycles_per_insn;
    if (verdict.accept) {
        // catchpacket(): copy into the STORE half.  The working set is the
        // double buffer itself — huge buffers spill the cache.
        work.copy_bytes += verdict.caplen;
        work.working_set_bytes = static_cast<double>(2 * buffer_bytes_);
    }
    pending_.push(verdict);
    return work.scaled(os_->kernel_cost_multiplier);
}

void BsdBpfDev::fanout_skip(int queue) {
    ++stats_.fanout_skipped;
    ++qstats(queue).fanout_skipped;
}

void BsdBpfDev::commit(const net::PacketPtr& packet, int queue) {
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
    const std::uint64_t need = slot_bytes(verdict.caplen);
    if (need > buffer_bytes_) {
        // catchpacket(): a slot larger than a whole buffer half can never
        // be stored; rotating would not help.  (Without this check the
        // packet used to be stored anyway, pushing stored_bytes past the
        // configured buffer size.)
        ++stats_.dropped_buffer;
        ++qs.dropped_buffer;
        return;
    }
    if (store_.stored_bytes + need > buffer_bytes_) {
        if (hold_ready_) {
            // Both halves occupied: the classic bpf "buffer full" drop.
            ++stats_.dropped_buffer;
            ++qs.dropped_buffer;
            return;
        }
        rotate();
    }
    store_.packets.push_back(packet);
    store_.stored_bytes += need;
    store_.caplen_bytes += verdict.caplen;
    store_.add(queue, verdict.caplen);
    if (obs::AppObserver* o = app_obs())
        o->enqueued(packet->id(), machine_->sim().now(),
                    static_cast<std::int64_t>(store_.stored_bytes));
}

void BsdBpfDev::rotate() {
    // Swap instead of move so STORE inherits the old HOLD's vector
    // capacity — steady-state rotation reallocates nothing.
    std::swap(hold_, store_);
    store_.clear();
    hold_ready_ = true;
    if (reader_ != nullptr) machine_->wake(*reader_);
}

std::optional<StackEndpoint::Batch> BsdBpfDev::fetch(std::size_t /*max_packets*/) {
    if (!hold_ready_) {
        schedule_timeout();
        return std::nullopt;
    }
    Batch batch;
    batch.packets = take_spare();
    std::swap(batch.packets, hold_.packets);
    batch.bytes = hold_.caplen_bytes;
    // One read(): syscall + copyout of the whole HOLD buffer.
    batch.fetch_work = os_->syscall_overhead;
    batch.fetch_work.copy_bytes += static_cast<double>(hold_.stored_bytes);
    batch.fetch_work.working_set_bytes = static_cast<double>(2 * buffer_bytes_);
    stats_.delivered += batch.packets.size();
    stats_.delivered_bytes += batch.bytes;
    for (std::size_t q = 0; q < hold_.queue_counts.size(); ++q) {
        if (hold_.queue_counts[q] == 0 && hold_.queue_bytes[q] == 0) continue;
        CaptureStats& qs = qstats(static_cast<int>(q));
        qs.delivered += hold_.queue_counts[q];
        qs.delivered_bytes += hold_.queue_bytes[q];
    }
    hold_.clear();
    hold_ready_ = false;
    if (obs::AppObserver* o = app_obs()) {
        const sim::SimTime now = machine_->sim().now();
        for (const net::PacketPtr& p : batch.packets) o->delivered(p->id(), now);
        o->fetched(batch.packets.size(),
                   static_cast<std::int64_t>(store_.stored_bytes), now);
    }
    return batch;
}

void BsdBpfDev::enable_read_timeout(sim::Duration timeout) { timeout_ = timeout; }

void BsdBpfDev::schedule_timeout() {
    if (timeout_ <= sim::Duration::zero() || timeout_armed_) return;
    timeout_armed_ = true;
    machine_->sim().schedule_in(timeout_, [this] {
        timeout_armed_ = false;
        if (!hold_ready_ && !store_.empty()) rotate();
        // Re-arm while the reader still waits for data.
        if (!hold_ready_ && reader_ != nullptr &&
            reader_->state() == hostsim::Thread::State::kBlocked)
            schedule_timeout();
    });
}

}  // namespace capbench::capture
