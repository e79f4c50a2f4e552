// Sniffer-side NIC model (Intel 82544EI class) with receive ring(s),
// interrupt moderation / NAPI-style batched service and backlog admission.
//
// Frames arriving from the fiber are steered to one of `queues` receive
// queues — a Toeplitz RSS hash over the packet's flow tuple indexes a
// 128-entry indirection table, exactly the hardware mechanism of RSS-class
// NICs — and placed into that queue's descriptor ring; a full ring
// overflows (FIFO drops).  Each queue owns an IRQ line directed at one CPU
// (irq_affinity), so per-queue interrupt and protocol work spreads across
// processors.  The first frame of a burst raises the queue's interrupt;
// the service loop then drains that ring in batches, posting per-packet
// kernel work to the driver, and keeps polling as long as frames are
// pending — one interrupt per burst rather than per packet, which is the
// receive-livelock avoidance of Section 2.2.1.  When the target CPU's
// kernel work queue (netdev backlog / ifqueue) is at its limit, drained
// frames are dropped before any protocol processing.  Each ring slot
// holds its frame's arrival time next to the frame; service hands both to
// the driver, which carries the stamp on to the capture taps.
//
// With queues == 1 (the default) the hash is never computed and every
// code path reduces to the historical single-ring model byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capbench/capture/driver.hpp"
#include "capbench/capture/os.hpp"
#include "capbench/capture/rss.hpp"
#include "capbench/net/packet.hpp"
#include "capbench/sim/ring_buffer.hpp"

namespace capbench::obs {
class Registry;
class SutObserver;
}

namespace capbench::capture {

struct NicModel {
    std::string name = "Intel 82544EI";
    std::size_t ring_slots = 256;
    std::size_t poll_batch = 64;
    /// With moderation (default) one interrupt serves a whole burst and the
    /// service loop polls while frames pend (NAPI / interrupt mitigation,
    /// Section 2.2.1).  Without it every packet pays the full interrupt
    /// overhead -- the receive-livelock ablation.
    bool interrupt_moderation = true;
    /// Receive queues, each an independent `ring_slots`-deep descriptor
    /// ring with its own IRQ line.  1 = the classic single-ring NIC.
    int queues = 1;
    /// CPU each queue's IRQ line is pinned to: queue i interrupts CPU
    /// irq_affinity[i % size].  Empty = queue i -> CPU i % logical_cpus
    /// (the irqbalance default).
    std::vector<int> irq_affinity;
    /// Explicit RSS indirection table; overrides `indirection_skew`.  Its
    /// max_queue() must be < queues.
    std::optional<rss::IndirectionTable> indirection;
    /// Convenience knob when no explicit table is given: fraction of
    /// indirection entries aimed at queue 0 (0 = uniform spread).  Lets a
    /// scenario variant declare "skewed" while the sweep varies `queues`.
    double indirection_skew = 0.0;
};

class Nic final : public net::FrameSink {
public:
    Nic(hostsim::Machine& machine, const OsSpec& os, NicModel model, Driver& driver);

    void on_frame(const net::PacketPtr& packet) override;

    /// Installs lifecycle-tracing hooks (may be null; hooks are
    /// branch-guarded so an untraced run pays one predictable branch).
    /// Every ring slot carries its frame's arrival stamp, so an observer
    /// may be installed at any time.
    void set_observer(obs::SutObserver* obs) { obs_ = obs; }

    /// Registers views of the per-queue counts `<prefix>.q<j>.{frames,
    /// ring_drops,backlog_drops}` in `registry`.
    void register_metrics(obs::Registry& registry, const std::string& prefix) const;

    /// NIC totals: sums of the per-queue counts.
    [[nodiscard]] std::uint64_t frames_seen() const { return sum(&Queue::frames); }
    [[nodiscard]] std::uint64_t ring_drops() const { return sum(&Queue::ring_drops); }
    [[nodiscard]] std::uint64_t backlog_drops() const { return sum(&Queue::backlog_drops); }

    [[nodiscard]] int queue_count() const { return static_cast<int>(queues_.size()); }
    [[nodiscard]] std::uint64_t queue_frames(int q) const {
        return queues_[static_cast<std::size_t>(q)].frames;
    }
    [[nodiscard]] std::uint64_t queue_ring_drops(int q) const {
        return queues_[static_cast<std::size_t>(q)].ring_drops;
    }
    [[nodiscard]] std::uint64_t queue_backlog_drops(int q) const {
        return queues_[static_cast<std::size_t>(q)].backlog_drops;
    }
    /// The CPU queue `q`'s IRQ line is pinned to.
    [[nodiscard]] int queue_cpu(int q) const { return queues_[static_cast<std::size_t>(q)].cpu; }

    /// Frames currently sitting in queue `q`'s descriptor ring (gauge,
    /// sampled by the interval time-series layer).
    [[nodiscard]] std::size_t queue_ring_occupancy(int q) const {
        return queues_[static_cast<std::size_t>(q)].ring.size();
    }
    /// Descriptor slots per receive queue (every queue is equally deep).
    [[nodiscard]] std::size_t ring_capacity() const { return model_.ring_slots; }

private:
    /// A descriptor-ring slot: the frame and its NIC arrival time (sim ns),
    /// which the driver hands on to each tap's commit.
    struct Slot {
        net::PacketPtr packet;
        std::int64_t arrival = 0;
    };

    /// One receive queue: descriptor ring, IRQ target, service state and
    /// drop accounting.
    struct Queue {
        sim::RingBuffer<Slot> ring;
        bool service_active = false;
        int cpu = 0;
        std::uint64_t frames = 0;
        std::uint64_t ring_drops = 0;
        std::uint64_t backlog_drops = 0;
    };

    [[nodiscard]] std::uint64_t sum(std::uint64_t Queue::*count) const {
        std::uint64_t total = 0;
        for (const Queue& q : queues_) total += q.*count;
        return total;
    }

    [[nodiscard]] int select_queue(const net::Packet& packet) const;
    void serve(int qi);
    void after_batch(int qi);

    hostsim::Machine* machine_;
    const OsSpec* os_;
    NicModel model_;
    Driver* driver_;
    obs::SutObserver* obs_ = nullptr;
    std::vector<Queue> queues_;
    rss::IndirectionTable table_;
};

}  // namespace capbench::capture
