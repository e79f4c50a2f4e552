// Point-to-point gigabit fiber link and passive optical splitter.
#pragma once

#include <cstdint>
#include <vector>

#include "capbench/net/packet.hpp"
#include "capbench/net/wire.hpp"
#include "capbench/sim/ring_buffer.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::net {

/// Unidirectional 1 Gbit/s link.  Serializes frames: a frame handed to
/// transmit() while the link is busy is delayed until the wire is free
/// (back-pressure towards the generator NIC).
///
/// Frames in flight form a FIFO lane: arrival times are increasing, so
/// each frame reserves its sequence number at transmit() and only the
/// lane's head holds a heap entry, the link's fixed queue target.  Every
/// delivery pops at the (time, seq) a push at transmit() would have had.
class Link {
public:
    /// `gbps` is the link speed (1 for the thesis's GigE; 10 for the
    /// Section 7.2 10-Gigabit scenario).
    explicit Link(sim::Simulator& sim, double gbps = 1.0);

    /// The queue's fixed target points at this link.
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;

    [[nodiscard]] double gbps() const { return gbps_; }

    void attach(FrameSink& sink) { sinks_.push_back(&sink); }

    /// Starts transmitting `packet` as soon as the wire is free; delivery to
    /// all attached sinks happens when the frame has fully arrived.
    /// Returns the time transmission will complete.
    sim::SimTime transmit(PacketPtr packet);

    /// Time at which the link becomes idle.
    [[nodiscard]] sim::SimTime busy_until() const { return busy_until_; }

    [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }

private:
    struct InFlight {
        sim::SimTime arrival{};
        std::uint64_t seq = 0;
        PacketPtr packet;
    };

    /// Delivers the lane's head to every sink.
    void deliver();

    sim::Simulator* sim_;
    double gbps_ = 1.0;
    std::vector<FrameSink*> sinks_;
    sim::RingBuffer<InFlight> in_flight_;
    sim::EventQueue::Target deliver_target_;
    sim::SimTime busy_until_{};
    std::uint64_t frames_sent_ = 0;
};

/// Passive optical splitter (Figure 2.3/3.1): duplicates the light to every
/// output with no buffering and no loss; its only real-world effect is a
/// reduced signal strength, which we do not model.
class Splitter : public FrameSink {
public:
    void attach(FrameSink& sink) { sinks_.push_back(&sink); }

    void on_frame(const PacketPtr& packet) override {
        for (auto* sink : sinks_) sink->on_frame(packet);
    }

private:
    std::vector<FrameSink*> sinks_;
};

/// Load distributor: hands each frame to exactly ONE output, round-robin —
/// the "physically distributing the traffic over different machines for
/// analysis" approach of Section 7.2.  Unlike the passive splitter this
/// needs an active device, but it divides the per-machine load by the
/// fan-out.
class RoundRobinSplitter : public FrameSink {
public:
    void attach(FrameSink& sink) { sinks_.push_back(&sink); }

    void on_frame(const PacketPtr& packet) override {
        if (sinks_.empty()) return;
        sinks_[next_]->on_frame(packet);
        next_ = (next_ + 1) % sinks_.size();
    }

private:
    std::vector<FrameSink*> sinks_;
    std::size_t next_ = 0;
};

}  // namespace capbench::net
