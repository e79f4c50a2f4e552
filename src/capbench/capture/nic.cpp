#include "capbench/capture/nic.hpp"

#include <stdexcept>

#include "capbench/obs/observer.hpp"
#include "capbench/obs/registry.hpp"

namespace capbench::capture {

Nic::Nic(hostsim::Machine& machine, const OsSpec& os, NicModel model, Driver& driver)
    : machine_(&machine), os_(&os), model_(std::move(model)), driver_(&driver) {
    if (model_.queues < 1) throw std::invalid_argument("Nic: queues must be >= 1");
    if (model_.indirection) {
        if (model_.indirection->max_queue() >= model_.queues)
            throw std::invalid_argument("Nic: indirection table names a queue >= queues");
        table_ = *model_.indirection;
    } else if (model_.indirection_skew > 0.0) {
        table_ = rss::IndirectionTable::skewed(model_.queues, 0, model_.indirection_skew);
    } else {
        table_ = rss::IndirectionTable::uniform(model_.queues);
    }
    queues_.resize(static_cast<std::size_t>(model_.queues));
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        Queue& q = queues_[i];
        if (!model_.irq_affinity.empty()) {
            q.cpu = model_.irq_affinity[i % model_.irq_affinity.size()];
        } else {
            q.cpu = static_cast<int>(i) % machine_->logical_cpus();
        }
        if (q.cpu < 0 || q.cpu >= machine_->logical_cpus())
            throw std::invalid_argument("Nic: irq_affinity names a CPU outside the machine");
    }
}

void Nic::register_metrics(obs::Registry& registry, const std::string& prefix) const {
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        const std::string base = prefix + ".q" + std::to_string(i);
        registry.add(base + ".frames", queues_[i].frames);
        registry.add(base + ".ring_drops", queues_[i].ring_drops);
        registry.add(base + ".backlog_drops", queues_[i].backlog_drops);
    }
}

int Nic::select_queue(const net::Packet& packet) const {
    // Single-queue NICs never touch the hash unit — keeps the classic
    // path's work (and schedule) bit-identical to the pre-RSS model.
    if (queues_.size() == 1) return 0;
    return table_.queue_for(rss::flow_hash(packet));
}

void Nic::on_frame(const net::PacketPtr& packet) {
    const int qi = select_queue(*packet);
    Queue& q = queues_[static_cast<std::size_t>(qi)];
    ++q.frames;
    if (q.ring.size() >= model_.ring_slots) {
        ++q.ring_drops;
        return;
    }
    q.ring.push_back(Slot{packet, machine_->sim().now().ns()});
    if (!q.service_active) {
        q.service_active = true;
        // First frame of a burst: pay the interrupt overhead on the
        // queue's CPU, then serve.
        if (obs_) obs_->irq_raised(machine_->sim().now());
        machine_->post_kernel_work_on(q.cpu,
                                      os_->irq_overhead.scaled(os_->kernel_cost_multiplier),
                                      hostsim::CpuState::kInterrupt, [this, qi] { serve(qi); });
    }
}

void Nic::serve(int qi) {
    Queue& q = queues_[static_cast<std::size_t>(qi)];
    if (obs_) obs_->ring_occupancy(machine_->sim().now(), q.ring.size());
    const std::size_t batch = model_.interrupt_moderation ? model_.poll_batch : 1;
    std::size_t n = 0;
    while (!q.ring.empty() && n < batch) {
        if (machine_->kernel_queue_len(q.cpu) >= os_->pipeline_limit) {
            // netdev backlog / ifqueue full on this CPU: drop before
            // protocol work.
            q.ring.pop_front();
            ++q.backlog_drops;
            continue;
        }
        const Slot& slot = q.ring.front();
        if (obs_) obs_->kernel_handoff(slot.arrival, machine_->sim().now());
        driver_->process(slot.packet, qi, q.cpu, slot.arrival, machine_->sim().now().ns());
        q.ring.pop_front();
        ++n;
    }
    // Zero-length marker work: runs after the batch completes (FIFO per
    // CPU), then either keeps polling or re-arms the interrupt.
    machine_->post_kernel_work_on(q.cpu, hostsim::Work{.cycles = 400},
                                  hostsim::CpuState::kInterrupt,
                                  [this, qi] { after_batch(qi); });
}

void Nic::after_batch(int qi) {
    Queue& q = queues_[static_cast<std::size_t>(qi)];
    if (q.ring.empty()) {
        if (obs_) obs_->ring_occupancy(machine_->sim().now(), 0);
        q.service_active = false;
        return;
    }
    if (model_.interrupt_moderation) {
        serve(qi);  // NAPI-style: stay in polling mode while frames pend
    } else {
        // One interrupt per packet: pay the overhead again (livelock mode).
        if (obs_) obs_->irq_raised(machine_->sim().now());
        machine_->post_kernel_work_on(q.cpu,
                                      os_->irq_overhead.scaled(os_->kernel_cost_multiplier),
                                      hostsim::CpuState::kInterrupt, [this, qi] { serve(qi); });
    }
}

}  // namespace capbench::capture
