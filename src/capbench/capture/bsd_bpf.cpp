#include "capbench/capture/bsd_bpf.hpp"

#include <utility>

namespace capbench::capture {

BsdBpfDev::BsdBpfDev(hostsim::Machine& machine, const OsSpec& os, std::uint64_t buffer_bytes,
                     std::uint32_t snaplen)
    // catchpacket(): copy into the STORE half.  The working set is the
    // double buffer itself — huge buffers spill the cache.
    : StackEndpoint(machine, os, snaplen,
                    {.copies_caplen = true,
                     .working_set_bytes = static_cast<double>(2 * buffer_bytes)}),
      buffer_bytes_(buffer_bytes) {}

std::uint64_t BsdBpfDev::slot_bytes(std::uint32_t caplen) const {
    // Each packet occupies its capture length plus the bpf header, padded
    // to word alignment (BPF_WORDALIGN).
    const std::uint64_t raw = caplen + os_->bpf_hdr_bytes;
    return (raw + 3) & ~std::uint64_t{3};
}

bool BsdBpfDev::store(CaptureRecord record) {
    const std::uint64_t need = slot_bytes(record.caplen);
    // catchpacket(): a slot larger than a whole buffer half can never be
    // stored; rotating would not help.
    if (need > buffer_bytes_) return false;
    if (store_.stored_bytes + need > buffer_bytes_) {
        // Both halves occupied: the classic bpf "buffer full" drop.
        if (hold_ready_) return false;
        rotate();
    }
    store_.stored_bytes += need;
    store_.packets.push_back(std::move(record));
    return true;
}

void BsdBpfDev::rotate() {
    // Swap instead of move so STORE inherits the old HOLD's vector
    // capacity — steady-state rotation reallocates nothing.
    std::swap(hold_, store_);
    store_.clear();
    hold_ready_ = true;
    wake_reader();
}

bool BsdBpfDev::read(std::size_t /*max_packets*/, Batch& batch) {
    if (!hold_ready_) {
        schedule_timeout();
        return false;
    }
    std::swap(batch.packets, hold_.packets);
    // One read(): syscall + copyout of the whole HOLD buffer.
    batch.fetch_work = os_->syscall_overhead;
    batch.fetch_work.copy_bytes += static_cast<double>(hold_.stored_bytes);
    batch.fetch_work.working_set_bytes = static_cast<double>(2 * buffer_bytes_);
    hold_.clear();
    hold_ready_ = false;
    return true;
}

void BsdBpfDev::enable_read_timeout(sim::Duration timeout) { timeout_ = timeout; }

void BsdBpfDev::schedule_timeout() {
    if (timeout_ <= sim::Duration::zero() || timeout_armed_) return;
    timeout_armed_ = true;
    machine_->sim().schedule_in(timeout_, [this] {
        timeout_armed_ = false;
        if (!hold_ready_ && !store_.empty()) rotate();
        // Re-arm while the reader still waits for data.
        if (!hold_ready_ && reader() != nullptr &&
            reader()->state() == hostsim::Thread::State::kBlocked)
            schedule_timeout();
    });
}

}  // namespace capbench::capture
