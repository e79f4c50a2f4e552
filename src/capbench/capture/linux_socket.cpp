#include "capbench/capture/linux_socket.hpp"

#include <algorithm>
#include <utility>

namespace capbench::capture {

LinuxPacketSocket::LinuxPacketSocket(hostsim::Machine& machine, const OsSpec& os,
                                     std::uint64_t rmem_bytes, std::uint32_t snaplen,
                                     SkbPool* pool)
    : StackEndpoint(machine, os, snaplen), rmem_bytes_(rmem_bytes), pool_(pool) {}

std::uint64_t LinuxPacketSocket::truesize(std::uint32_t frame_len) const {
    const std::uint64_t slab = os_->skb_truesize_slab;
    if (slab == 0) return frame_len;
    // Every standard frame fits one slab; only a larger one is rounded up
    // by division.  An empty frame charges the bare overhead.
    std::uint64_t data = frame_len == 0 ? 0 : slab;
    if (frame_len > slab) data = (frame_len + slab - 1) / slab * slab;
    return data + os_->skb_overhead;
}

bool LinuxPacketSocket::store(CaptureRecord record) {
    const std::uint64_t ts = truesize(record.frame_len);
    // sk_rmem (or the shared skb pool) exhausted: drop for this socket.
    if (queued_truesize_ + ts > rmem_bytes_ ||
        (pool_ != nullptr && pool_->used + ts > pool_->limit))
        return false;
    queue_.push_back(std::move(record));
    queued_truesize_ += ts;
    if (pool_ != nullptr) pool_->used += ts;
    wake_reader();
    return true;
}

bool LinuxPacketSocket::read(std::size_t max_packets, Batch& batch) {
    if (queue_.empty()) return false;
    const std::size_t n = std::min(max_packets, queue_.size());
    batch.packets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        CaptureRecord& record = queue_.front();
        const std::uint64_t ts = truesize(record.frame_len);
        queued_truesize_ -= ts;
        if (pool_ != nullptr) pool_->used -= ts;
        // Every packet costs one recvfrom(): syscall + copy_to_user.
        batch.fetch_work += os_->syscall_overhead;
        batch.fetch_work += os_->deliver_per_packet;
        batch.fetch_work.copy_bytes += record.caplen;
        batch.packets.push_back(std::move(record));
        queue_.pop_front();
    }
    return true;
}

}  // namespace capbench::capture
