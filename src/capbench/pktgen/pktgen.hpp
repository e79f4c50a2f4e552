// Enhanced Linux Kernel Packet Generator (Chapter 4, Appendix A.2).
//
// Generates UDP-in-IPv4-in-Ethernet frames onto a link, either at a target
// data rate (via per-packet pacing) or as fast as the generating NIC
// allows.  The thesis's enhancement — drawing each packet's size from a
// two-stage packet size distribution instead of a fixed size — is
// implemented via dist::TwoStageDist and activated with the
// PKTSIZE_REAL flag, exactly like the original /proc interface (which
// pgset.cpp parses).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "capbench/dist/two_stage_dist.hpp"
#include "capbench/net/arena.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/net/link.hpp"
#include "capbench/sim/random.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::obs {
class Registry;
}

namespace capbench::pktgen {

/// Generating NIC model: the fixed per-packet transmit overhead that keeps
/// real cards below theoretical line speed.  Calibrated to the rates the
/// thesis measured with 1500-byte packets (Section 4.1.3): Syskonnect
/// 938 Mbit/s, Netgear 930 Mbit/s, Intel 890 Mbit/s.
struct GenNicModel {
    std::string name = "Syskonnect SK-98xx";
    double per_packet_overhead_ns = 490.0;

    static const GenNicModel& syskonnect();  // 938 Mbit/s @ 1500 B
    static const GenNicModel& netgear();     // 930 Mbit/s @ 1500 B
    static const GenNicModel& intel();       // 890 Mbit/s @ 1500 B
};

struct GenConfig {
    std::uint64_t count = 1'000'000;   // packets per run (thesis default)
    std::uint32_t packet_size = 1500;  // IP packet size when no distribution
    /// Target frame-data rate in Mbit/s; 0 = as fast as possible.
    double rate_mbps = 0.0;
    /// Extra inter-packet gap (the pktgen `delay` command), nanoseconds.
    std::int64_t delay_ns = 0;
    /// Speed of the attached link in Gbit/s (pacing floor); 10 for the
    /// Section 7.2 10-Gigabit scenario.
    double link_gbps = 1.0;
    /// Packet size distribution; used when `use_dist` (flag PKTSIZE_REAL).
    std::optional<dist::TwoStageDist> size_dist;
    bool use_dist = false;
    /// Generate real frame bytes (needed for filter experiments and pcap
    /// output); otherwise synthetic size-only packets.
    bool full_bytes = false;
    std::uint64_t seed = 1;

    /// Square-wave rate modulation (the overload-pulse workload): from
    /// generation start, during the first `burst_duration_ns` of every
    /// `burst_period_ns` the target rate is multiplied by
    /// `burst_multiplier` (still floored by the NIC/link pacing gap).
    /// period 0 (default) = steady rate, byte-identical to classic pacing.
    std::int64_t burst_period_ns = 0;
    std::int64_t burst_duration_ns = 0;
    double burst_multiplier = 10.0;

    /// Per-packet flow identity: packets cycle deterministically through
    /// this many distinct UDP 4-tuples (flow id = packet id % flow_count),
    /// each derived from the base addressing below.  1 = the classic
    /// single-flow traffic (the tuple is exactly the base addressing).
    /// Every packet is stamped with its tuple — full-bytes mode also
    /// encodes it in the headers — which is what RSS steering hashes.
    std::uint32_t flow_count = 1;

    // Addressing (defaults from the Figure 6.5 measurement description).
    net::MacAddr src_mac = net::MacAddr::parse("00:00:00:00:00:00");
    /// Cycle the source MAC through this many consecutive addresses
    /// (0 or 1 = no cycling; the thesis cycles through 3).
    std::uint32_t src_mac_count = 3;
    net::MacAddr dst_mac = net::MacAddr::parse("00:0e:0c:01:02:03");
    net::Ipv4Addr src_ip = net::Ipv4Addr::parse("192.168.10.100");
    net::Ipv4Addr dst_ip = net::Ipv4Addr::parse("192.168.10.12");
    std::uint16_t udp_src_port = 9;
    std::uint16_t udp_dst_port = 9;
};

struct GenStats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;  // IP packet bytes (the thesis's data-rate unit)
    sim::SimTime started_at{};
    sim::SimTime finished_at{};

    [[nodiscard]] double elapsed_seconds() const {
        return (finished_at - started_at).seconds();
    }
    [[nodiscard]] double achieved_mbps() const {
        const double s = elapsed_seconds();
        return s > 0 ? static_cast<double>(bytes_sent) * 8.0 / s / 1e6 : 0.0;
    }
    [[nodiscard]] double achieved_pps() const {
        const double s = elapsed_seconds();
        return s > 0 ? static_cast<double>(packets_sent) / s : 0.0;
    }
};

class Generator {
public:
    /// `arena` supplies recycled packet nodes and payload buffers; when
    /// omitted the generator creates a private one.
    Generator(sim::Simulator& sim, net::Link& link, GenNicModel nic, GenConfig config,
              std::shared_ptr<net::PacketArena> arena = nullptr);

    /// The queue's fixed target points at this generator.
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    /// Applies one pgset command line (Appendix A.2.2); see pgset.cpp for
    /// the command set.  Throws std::runtime_error on unknown commands and
    /// on activating PKTSIZE_REAL before the distribution is complete.
    void apply_pgset(const std::string& line);

    /// Schedules generation starting at `at`; `on_done` fires after the
    /// last packet has left the wire.
    void start(sim::SimTime at, std::function<void()> on_done = {});

    [[nodiscard]] const GenStats& stats() const { return stats_; }
    [[nodiscard]] const GenConfig& config() const { return config_; }
    [[nodiscard]] GenConfig& config() { return config_; }

    /// The size the next packet would get (exposed for tests).
    [[nodiscard]] std::uint32_t draw_size();

    /// The flow tuple packet `id` is stamped with (exposed for tests).
    [[nodiscard]] net::FlowTuple flow_for(std::uint64_t id) const;

    /// Registers views of GenStats' counts as `pktgen.packets` /
    /// `pktgen.bytes`.
    void register_metrics(obs::Registry& registry) const;

private:
    void send_next();
    [[nodiscard]] net::PacketPtr build_packet(std::uint32_t ip_size);

    sim::Simulator* sim_;
    net::Link* link_;
    std::shared_ptr<net::PacketArena> arena_;
    GenNicModel nic_;
    GenConfig config_;
    sim::Rng rng_;
    GenStats stats_;
    std::function<void()> on_done_;
    sim::EventQueue::Target send_target_;  // fires send_next()
    std::uint64_t next_id_ = 0;
    sim::SimTime pace_next_{};
    /// Distribution input in progress between a `dist` header and its last
    /// outl/hist line (owned by pgset.cpp).
    std::shared_ptr<void> pending_dist_;
};

}  // namespace capbench::pktgen
