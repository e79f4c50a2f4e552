// Linux PF_PACKET socket model (Section 2.1.2, Figure 2.2).
//
// The NET_RX softirq clones the skb for every matching packet socket and
// appends it to the socket's receive queue, which is bounded in bytes by
// the socket receive buffer (rmem).  The charge per packet is the skb
// "truesize" — the slab-rounded data size plus bookkeeping — which is why
// a 64 kB default buffer holds only a few dozen mid-size packets.  The
// application fetches packets one recvfrom() at a time, each paying a
// syscall plus a per-packet copy to user space.
#pragma once

#include <cstdint>

#include "capbench/capture/os.hpp"
#include "capbench/capture/tap.hpp"
#include "capbench/sim/ring_buffer.hpp"

namespace capbench::capture {

/// Shared kernel packet-memory pool.  Cloned skbs queued on *any* packet
/// socket are charged here; once starved applications pin their full
/// receive queues, the pool exhausts and every socket starts dropping --
/// the reference-counting pathology of Section 6.3.3 ("if any application
/// does not release the claim for a packet, this packet is kept forever,
/// blocking kernel memory").
struct SkbPool {
    std::uint64_t used = 0;
    std::uint64_t limit = 192ull * 1024 * 1024;  // ~lowmem available for skbs
};

class LinuxPacketSocket final : public StackEndpoint {
public:
    /// `rmem_bytes` is the socket receive buffer size (rmem_default or the
    /// raised rmem_max of Section 6.3.1).
    LinuxPacketSocket(hostsim::Machine& machine, const OsSpec& os, std::uint64_t rmem_bytes,
                      std::uint32_t snaplen, SkbPool* pool = nullptr);

    [[nodiscard]] std::uint64_t buffer_occupancy() const override { return queued_truesize_; }
    [[nodiscard]] std::uint64_t buffer_capacity() const override { return rmem_bytes_; }

    /// The skb truesize a queued packet charges: its frame length rounded
    /// up to whole slabs plus the per-skb overhead (the bare frame length
    /// when the OS has no slab).  A function of the frame length, so the
    /// queue keeps bare records and recomputes it on read.
    [[nodiscard]] std::uint64_t truesize(std::uint32_t frame_len) const;

private:
    bool store(CaptureRecord record) override;
    bool read(std::size_t max_packets, Batch& batch) override;

    std::uint64_t rmem_bytes_;
    sim::RingBuffer<CaptureRecord> queue_;
    std::uint64_t queued_truesize_ = 0;
    SkbPool* pool_ = nullptr;
};

}  // namespace capbench::capture
