// Kernel driver + protocol demux: turns received frames into per-packet
// kernel work and delivers them to the attached capture taps selected by
// the fanout group (mirror = everyone, the classic model).
#pragma once

#include <cstdint>
#include <vector>

#include "capbench/capture/os.hpp"
#include "capbench/capture/tap.hpp"
#include "capbench/net/packet.hpp"

namespace capbench::capture {

class Driver {
public:
    Driver(hostsim::Machine& machine, const OsSpec& os, FanoutGroup fanout = {})
        : machine_(&machine), os_(&os), fanout_(fanout) {}

    /// Registers a capture consumer.  FreeBSD: one BPF per application;
    /// Linux: one PF_PACKET socket per application.
    void attach(PacketTap& tap) { taps_.push_back(&tap); }

    /// Posts the kernel work for one received packet (driver + softirq +
    /// the targeted taps' filter/copy/clone) and commits delivery when it
    /// completes.  Runs in interrupt context on CPU 0.
    void process(const net::PacketPtr& packet) { process(packet, 0, 0, 0, 0); }

    /// Multi-queue entry point: the packet arrived on RSS queue `queue`,
    /// whose IRQ line targets `cpu` — the kernel work runs there.
    /// `arrival` and `handoff` are its NIC arrival and kernel hand-off
    /// stamps (sim ns), passed on to each tap's commit.
    void process(const net::PacketPtr& packet, int queue, int cpu, std::int64_t arrival,
                 std::int64_t handoff);

    [[nodiscard]] const FanoutGroup& fanout() const { return fanout_; }

private:
    /// Commits `record` and its stamps to every tap that fanout targets
    /// for `queue`.
    void commit(int queue, std::uint32_t hash, const CaptureRecord& record,
                std::int64_t arrival, std::int64_t handoff);

    hostsim::Machine* machine_;
    const OsSpec* os_;
    FanoutGroup fanout_;
    std::vector<PacketTap*> taps_;
};

}  // namespace capbench::capture
