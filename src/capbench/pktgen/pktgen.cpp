#include "capbench/pktgen/pktgen.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "capbench/net/wire.hpp"
#include "capbench/obs/registry.hpp"

namespace capbench::pktgen {

const GenNicModel& GenNicModel::syskonnect() {
    static const GenNicModel m{"Syskonnect SK-98xx", 490.0};
    return m;
}
const GenNicModel& GenNicModel::netgear() {
    static const GenNicModel m{"Netgear GA-621", 600.0};
    return m;
}
const GenNicModel& GenNicModel::intel() {
    static const GenNicModel m{"Intel 82544EI", 1180.0};
    return m;
}

Generator::Generator(sim::Simulator& sim, net::Link& link, GenNicModel nic, GenConfig config,
                     std::shared_ptr<net::PacketArena> arena)
    : sim_(&sim), link_(&link),
      arena_(arena != nullptr ? std::move(arena) : net::PacketArena::create()),
      nic_(std::move(nic)), config_(std::move(config)), rng_(config_.seed),
      send_target_(sim.queue().add_target(
          [](void* self, std::uint32_t, std::uint64_t) {
              static_cast<Generator*>(self)->send_next();
          },
          this)) {}

std::uint32_t Generator::draw_size() {
    if (config_.use_dist && config_.size_dist) return config_.size_dist->sample(rng_);
    return config_.packet_size;
}

void Generator::register_metrics(obs::Registry& registry) const {
    registry.add("pktgen.packets", stats_.packets_sent);
    registry.add("pktgen.bytes", stats_.bytes_sent);
}

net::FlowTuple Generator::flow_for(std::uint64_t id) const {
    net::FlowTuple t{config_.src_ip.value(), config_.dst_ip.value(), config_.udp_src_port,
                     config_.udp_dst_port};
    if (config_.flow_count <= 1) return t;
    const auto flow = static_cast<std::uint32_t>(id % config_.flow_count);
    // Deterministic spread: the source address walks a host range while a
    // golden-ratio mix decorrelates the source port, so consecutive flow
    // ids land on well-spread RSS hash values.  The destination (the
    // capture target) stays fixed.
    const std::uint32_t mix = flow * 0x9E3779B1u;
    t.src_ip += flow % 251;
    t.src_port = static_cast<std::uint16_t>(1024 + (mix >> 17));
    return t;
}

net::PacketPtr Generator::build_packet(std::uint32_t ip_size) {
    // The distribution counts IP packet sizes (Section 4.2.1); frames add
    // the Ethernet header and minimum-size padding.
    ip_size = std::max<std::uint32_t>(
        ip_size, net::kIpv4MinHeaderLen + net::kUdpHeaderLen);
    const std::uint32_t frame_len =
        std::max<std::uint32_t>(ip_size + net::kEthernetHeaderLen, net::kMinFrameBytes);
    const std::uint64_t id = next_id_++;
    const net::FlowTuple flow = flow_for(id);

    if (!config_.full_bytes) {
        std::shared_ptr<net::Packet> packet = arena_->make_synthetic(id, frame_len, sim_->now());
        packet->set_flow(flow);
        return packet;
    }

    std::shared_ptr<net::Packet> packet = arena_->make_full(id, frame_len, sim_->now());
    packet->set_flow(flow);
    const std::span<std::byte> frame = packet->mutable_bytes();
    net::EthernetHeader eth;
    eth.dst = config_.dst_mac;
    eth.src = config_.src_mac_count > 1
                  ? config_.src_mac.plus(id % config_.src_mac_count)
                  : config_.src_mac;
    eth.ether_type = net::kEtherTypeIpv4;
    eth.encode(frame);

    net::Ipv4Header ip;
    ip.total_length = static_cast<std::uint16_t>(ip_size);
    ip.identification = static_cast<std::uint16_t>(id & 0xFFFF);
    ip.protocol = net::kIpProtoUdp;
    ip.src = net::Ipv4Addr{flow.src_ip};
    ip.dst = net::Ipv4Addr{flow.dst_ip};
    ip.encode(frame.subspan(net::kEthernetHeaderLen));

    net::UdpHeader udp;
    udp.src_port = flow.src_port;
    udp.dst_port = flow.dst_port;
    udp.length = static_cast<std::uint16_t>(ip_size - net::kIpv4MinHeaderLen);
    udp.encode(frame.subspan(net::kEthernetHeaderLen + net::kIpv4MinHeaderLen));

    // Payload pattern: pktgen-style magic + sequence for loss debugging.
    // Byte i of the frame is (id + i) & 0xFF: a ramp with a 256-byte
    // period.  The table holds 2048 bytes from any phase, so one memcpy
    // fills every payload up to 2048 bytes (a chunk of whole periods);
    // larger frames take one more per 2048 bytes.
    constexpr std::size_t kChunk = 2048;
    static const std::array<std::byte, 256 + kChunk> ramp = [] {
        std::array<std::byte, 256 + kChunk> r{};
        for (std::size_t i = 0; i < r.size(); ++i) r[i] = static_cast<std::byte>(i & 0xFF);
        return r;
    }();
    constexpr std::size_t payload_offset =
        net::kEthernetHeaderLen + net::kIpv4MinHeaderLen + net::kUdpHeaderLen;
    const std::byte* phase = ramp.data() + ((id + payload_offset) & 0xFF);
    for (std::size_t i = payload_offset; i < frame.size(); i += kChunk)
        std::memcpy(frame.data() + i, phase, std::min(kChunk, frame.size() - i));

    return packet;
}

void Generator::start(sim::SimTime at, std::function<void()> on_done) {
    if (config_.use_dist && !config_.size_dist)
        throw std::runtime_error("pktgen: PKTSIZE_REAL set but no distribution loaded");
    on_done_ = std::move(on_done);
    stats_ = GenStats{};
    stats_.started_at = at;
    pace_next_ = at;
    sim_->schedule_at(at, send_target_);
}

void Generator::send_next() {
    if (stats_.packets_sent >= config_.count) {
        stats_.finished_at = link_->busy_until();
        if (on_done_) on_done_();
        return;
    }
    const std::uint32_t ip_size =
        std::max<std::uint32_t>(draw_size(), net::kIpv4MinHeaderLen + net::kUdpHeaderLen);
    auto packet = build_packet(ip_size);
    const std::uint32_t frame_len = packet->frame_len();
    link_->transmit(std::move(packet));
    ++stats_.packets_sent;
    // Data rates throughout the thesis count IP packet bytes; with this
    // convention the Syskonnect card's 1500-byte maximum comes out at the
    // measured 938 Mbit/s.
    stats_.bytes_sent += ip_size;

    // Pacing: at a target rate, the next packet starts one packet-time (at
    // the target rate) after this one started; at full speed, as soon as
    // the wire and the NIC allow.  The configured delay adds on top.
    const sim::Duration nic_gap =
        net::wire_time_at(frame_len, config_.link_gbps) +
        sim::Duration{static_cast<std::int64_t>(nic_.per_packet_overhead_ns)} +
        sim::Duration{config_.delay_ns};
    sim::SimTime next = sim_->now() + nic_gap;
    if (config_.rate_mbps > 0.0) {
        double rate = config_.rate_mbps;
        if (config_.burst_period_ns > 0) {
            const std::int64_t phase =
                (sim_->now() - stats_.started_at).ns() % config_.burst_period_ns;
            if (phase < config_.burst_duration_ns) rate *= config_.burst_multiplier;
            // A burst above what the NIC gap admits leaves the pacing
            // cursor behind the clock; without this clamp the deficit
            // would be "repaid" at line rate after the burst window,
            // smearing the square wave.
            pace_next_ = std::max(pace_next_, sim_->now());
        }
        const double bits = static_cast<double>(ip_size) * 8.0;
        const auto inter = sim::Duration{static_cast<std::int64_t>(bits * 1000.0 / rate)};
        pace_next_ = pace_next_ + inter;
        next = std::max(next, pace_next_);
    }
    sim_->schedule_at(next, send_target_);
}

}  // namespace capbench::pktgen
