// Memory-mapped ring-buffer capture (the Phil Woods mmap libpcap patch,
// Section 6.3.6).
//
// The kernel copies accepted packets into fixed-size frames of a ring that
// is mapped into the application's address space; the application consumes
// frames without any syscall or kernel-to-user copy.  This removes one of
// the two Linux copies and the per-packet recvfrom() — the "rigorous
// performance improvement" of Figure 6.15.  Like the original patch it is
// Linux-only and does not support libpcap's non-blocking mode.
#pragma once

#include <cstdint>

#include "capbench/capture/os.hpp"
#include "capbench/capture/tap.hpp"
#include "capbench/sim/ring_buffer.hpp"

namespace capbench::capture {

class MmapRing final : public StackEndpoint {
public:
    /// `ring_bytes` total mapped size; frames are `frame_bytes` each.
    MmapRing(hostsim::Machine& machine, const OsSpec& os, std::uint64_t ring_bytes,
             std::uint32_t snaplen, std::uint32_t frame_bytes = 2048);

    [[nodiscard]] std::uint64_t buffer_occupancy() const override { return ring_.size(); }
    [[nodiscard]] std::uint64_t buffer_capacity() const override { return slots_; }

private:
    bool store(CaptureRecord record) override;
    bool read(std::size_t max_packets, Batch& batch) override;

    std::size_t slots_;
    sim::RingBuffer<CaptureRecord> ring_;
};

}  // namespace capbench::capture
