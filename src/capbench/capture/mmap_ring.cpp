#include "capbench/capture/mmap_ring.hpp"

#include <algorithm>
#include <utility>

namespace capbench::capture {

MmapRing::MmapRing(hostsim::Machine& machine, const OsSpec& os, std::uint64_t ring_bytes,
                   std::uint32_t snaplen, std::uint32_t frame_bytes)
    // The kernel still copies the packet once, into the mapped ring.
    : StackEndpoint(machine, os, snaplen,
                    {.copies_caplen = true, .working_set_bytes = std::nullopt}),
      slots_(std::max<std::size_t>(16, ring_bytes / std::max(frame_bytes, 256u))) {}

bool MmapRing::store(CaptureRecord record) {
    if (ring_.size() >= slots_) return false;
    ring_.push_back(std::move(record));
    wake_reader();
    return true;
}

bool MmapRing::read(std::size_t max_packets, Batch& batch) {
    if (ring_.empty()) return false;
    const std::size_t n = std::min(max_packets, ring_.size());
    batch.packets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        batch.packets.push_back(std::move(ring_.front()));
        ring_.pop_front();
    }
    // No syscall, no copy: the application reads mapped frames directly.
    batch.fetch_work.cycles = 180.0 * static_cast<double>(n);
    batch.fetch_work.mem_misses = 1.0 * static_cast<double>(n);
    return true;
}

}  // namespace capbench::capture
