// The measurement testbed of Figure 3.1: workload generator -> gigabit
// fiber -> monitoring switch (with SNMP counters) -> passive optical
// splitter -> the systems under test.
#pragma once

#include <memory>
#include <vector>

#include "capbench/harness/sut.hpp"
#include "capbench/net/arena.hpp"
#include "capbench/net/link.hpp"
#include "capbench/net/switch.hpp"
#include "capbench/pktgen/pktgen.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::obs {
class Observer;
}

namespace capbench::harness {

struct TestbedConfig {
    pktgen::GenConfig gen;
    pktgen::GenNicModel gen_nic = pktgen::GenNicModel::syskonnect();
    std::vector<SutConfig> suts;
    /// Link speed in Gbit/s (Section 7.2's 10-GbE scenario uses 10).
    double link_gbps = 1.0;
    /// Replace the passive splitter (every sniffer sees every packet) with
    /// a round-robin distributor (each packet goes to ONE sniffer) — the
    /// load-distribution approach of Section 7.2.
    bool distribute_round_robin = false;
    /// Kept only so existing code naming it compiles; see EventQueueBackend.
    sim::EventQueueBackend event_queue = sim::EventQueueBackend::kHeap;
    /// Lifecycle/metrics observer; null (the default) disables every hook.
    obs::Observer* observer = nullptr;
};

class Testbed {
public:
    explicit Testbed(TestbedConfig config);

    [[nodiscard]] sim::Simulator& sim() { return sim_; }
    [[nodiscard]] net::PacketArena& arena() { return *arena_; }
    [[nodiscard]] pktgen::Generator& generator() { return *gen_; }
    [[nodiscard]] net::MonitorSwitch& monitor_switch() { return switch_; }
    [[nodiscard]] std::vector<std::unique_ptr<Sut>>& suts() { return suts_; }

    /// Starts all capturing applications (step 1 of the measurement cycle).
    void start_suts();

private:
    // The arena is declared before (so destroyed after) everything that can
    // hold packets; packet control blocks additionally pin it via their
    // allocator, so either ordering would be safe — this one avoids keeping
    // a dead testbed's freelists alive through a straggler reference.
    std::shared_ptr<net::PacketArena> arena_ = net::PacketArena::create();
    sim::Simulator sim_;
    std::unique_ptr<net::Link> link_;
    net::MonitorSwitch switch_;
    net::Splitter splitter_;
    net::RoundRobinSplitter distributor_;
    std::unique_ptr<pktgen::Generator> gen_;
    std::vector<std::unique_ptr<Sut>> suts_;
};

}  // namespace capbench::harness
