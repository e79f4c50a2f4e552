#include "capbench/net/link.hpp"

#include <algorithm>

namespace capbench::net {

Link::Link(sim::Simulator& sim, double gbps)
    : sim_(&sim), gbps_(gbps),
      deliver_target_(sim.queue().add_target(
          [](void* self, std::uint32_t, std::uint64_t) { static_cast<Link*>(self)->deliver(); },
          this)) {}

sim::SimTime Link::transmit(PacketPtr packet) {
    const sim::SimTime start = std::max(sim_->now(), busy_until_);
    const sim::SimTime done = start + wire_time_at(packet->frame_len(), gbps_);
    busy_until_ = done;
    ++frames_sent_;
    const std::uint64_t seq = sim_->queue().reserve();
    if (in_flight_.empty()) sim_->queue().push_reserved(done, seq, deliver_target_);
    InFlight& frame = in_flight_.emplace_back();
    frame.arrival = done;
    frame.seq = seq;
    frame.packet = std::move(packet);
    return done;
}

void Link::deliver() {
    const PacketPtr packet = std::move(in_flight_.front().packet);
    in_flight_.pop_front();
    if (!in_flight_.empty())
        sim_->queue().push_reserved(in_flight_.front().arrival, in_flight_.front().seq,
                                    deliver_target_);
    for (auto* sink : sinks_) sink->on_frame(packet);
}

}  // namespace capbench::net
