// Packet representation.
//
// Packets flow from the generator through the switch and splitter into the
// NICs of the systems under test.  Two modes are supported:
//
//  * full mode: the packet carries its frame bytes (needed whenever a BPF
//    filter inspects packet contents or packets are written to pcap files);
//  * synthetic mode: only the sizes are carried (fast path for the pure
//    capture-rate experiments where contents are irrelevant; the thesis
//    notes "type and content of the packets have no influence on the
//    process of capturing", Section 3.2).
//
// Packets are shared immutably (like cloned skbs): the splitter hands the
// same underlying packet to all four sniffers.  A packet lives only until
// every sniffer's driver has run its taps' filters over it: capture buffers
// then hold a compact capture::CaptureRecord, which keeps the packet only
// for an application that reads bytes.  On the hot path both the control
// block and the payload come from a PacketArena (see arena.hpp) and are
// recycled through freelists, so pktgen -> splitter -> NICs runs without
// malloc churn; the plain constructors below remain for tests and tools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "capbench/sim/time.hpp"

namespace capbench::net {

class PacketArena;

/// Synthetic flow identity (a UDP/TCP 4-tuple) stamped on every generated
/// packet.  Both packet modes carry it: full-mode packets also encode it in
/// their headers, while synthetic packets have no bytes at all — the tuple
/// is what lets a multi-queue NIC compute an RSS hash without parsing.
/// Addresses and ports are in host byte order.
struct FlowTuple {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
};

class Packet {
public:
    /// Creates a synthetic packet: sizes only, no payload bytes.
    /// `frame_len` is the Ethernet frame length without FCS.
    Packet(std::uint64_t id, std::uint32_t frame_len, sim::SimTime sent_at)
        : id_(id), frame_len_(frame_len), sent_at_(sent_at) {}

    /// Creates a full packet owning its frame bytes (without FCS).
    Packet(std::uint64_t id, std::vector<std::byte> frame, sim::SimTime sent_at)
        : id_(id),
          frame_len_(static_cast<std::uint32_t>(frame.size())),
          sent_at_(sent_at),
          owned_(std::move(frame)),
          data_(owned_.data()) {}

    /// Creates a full packet whose payload (`frame_len` bytes, uninitialized)
    /// is owned by `arena` and returned to it on destruction.  Used by
    /// PacketArena::make_full; the arena outlives the packet by construction
    /// (the shared_ptr control block holds a reference to it).
    Packet(std::uint64_t id, std::uint32_t frame_len, sim::SimTime sent_at, std::byte* payload,
           PacketArena* arena)
        : id_(id), frame_len_(frame_len), sent_at_(sent_at), data_(payload), arena_(arena) {}

    Packet(const Packet&) = delete;
    Packet& operator=(const Packet&) = delete;

    ~Packet();

    [[nodiscard]] std::uint64_t id() const { return id_; }

    /// Ethernet frame length in bytes, excluding preamble and FCS.
    [[nodiscard]] std::uint32_t frame_len() const { return frame_len_; }

    [[nodiscard]] sim::SimTime sent_at() const { return sent_at_; }

    [[nodiscard]] bool has_bytes() const { return data_ != nullptr; }

    /// Frame bytes; empty span for synthetic packets.
    [[nodiscard]] std::span<const std::byte> bytes() const {
        return data_ != nullptr ? std::span<const std::byte>{data_, frame_len_}
                                : std::span<const std::byte>{};
    }

    /// Writable frame bytes, for filling a full packet before it is
    /// published.  Only valid for full packets.
    [[nodiscard]] std::span<std::byte> mutable_bytes() {
        return {data_, data_ != nullptr ? frame_len_ : 0};
    }

    [[nodiscard]] const FlowTuple& flow() const { return flow_; }

    /// Stamps the flow identity; called by the generator before the packet
    /// is published as an immutable PacketPtr.
    void set_flow(const FlowTuple& flow) { flow_ = flow; }

private:
    std::uint64_t id_ = 0;
    std::uint32_t frame_len_ = 0;
    sim::SimTime sent_at_{};
    FlowTuple flow_{};
    std::vector<std::byte> owned_;       // self-owned full mode only
    std::byte* data_ = nullptr;          // payload (self- or arena-owned)
    PacketArena* arena_ = nullptr;       // non-null when payload is arena-owned
};

using PacketPtr = std::shared_ptr<const Packet>;

/// Consumer interface for frame delivery (switch ports, splitter taps, NICs).
class FrameSink {
public:
    virtual ~FrameSink() = default;

    /// Called at the simulated time the frame has fully arrived.
    virtual void on_frame(const PacketPtr& packet) = 0;
};

}  // namespace capbench::net
