#include "capbench/capture/tap.hpp"

#include <utility>
#include <vector>

#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/net/wire.hpp"

namespace capbench::capture {

FanoutGroup::FanoutGroup(FanoutMode mode, int queues) : mode_(mode), queues_(queues) {
    if (queues < 1) throw std::invalid_argument("FanoutGroup: queues must be >= 1");
}

bool FanoutGroup::targets(std::size_t index, std::size_t tap_count, int queue,
                          std::uint32_t hash) const {
    switch (mode_) {
        case FanoutMode::kMirror:
            return true;
        case FanoutMode::kQueue:
            return pinned_queue(index) == queue;
        case FanoutMode::kCluster:
            return index == hash % tap_count;
    }
    return true;  // unreachable; keeps -Wreturn-type quiet
}

void FilterRunner::install(bpf::Program program) {
    decoded_.reset();
    jit_.reset();
    if (!program.empty()) {
        const bpf::ExecTier tier =
            bpf::effective_tier(bpf::exec_tier(), bpf::JitProgram::supported());
        if (tier == bpf::ExecTier::kInterpreter) {
            bpf::verify_or_throw(program);
        } else {
            // Verifies (throws on rejection); compiles native code at most
            // once per distinct program.
            bpf::CachedFilter cached = bpf::cache_filter(program, true);
            decoded_ = std::move(cached.decoded);
            jit_ = std::move(cached.jit);
        }
    }
    program_ = std::move(program);
}

std::span<const std::byte> FilterRunner::synthetic_template() {
    // Matches pktgen::GenConfig's defaults: UDP 192.168.10.100 ->
    // 192.168.10.12, source MAC 00:00:00:00:00:00.
    static const std::vector<std::byte> frame = [] {
        std::vector<std::byte> f(net::kMaxFrameBytes);
        net::EthernetHeader eth;
        eth.dst = net::MacAddr::parse("00:0e:0c:01:02:03");
        eth.src = net::MacAddr::parse("00:00:00:00:00:00");
        eth.ether_type = net::kEtherTypeIpv4;
        eth.encode(f);
        net::Ipv4Header ip;
        ip.total_length = static_cast<std::uint16_t>(f.size() - net::kEthernetHeaderLen);
        ip.protocol = net::kIpProtoUdp;
        ip.src = net::Ipv4Addr::parse("192.168.10.100");
        ip.dst = net::Ipv4Addr::parse("192.168.10.12");
        ip.encode(std::span{f}.subspan(net::kEthernetHeaderLen));
        net::UdpHeader udp;
        udp.src_port = 9;
        udp.dst_port = 9;
        udp.length = static_cast<std::uint16_t>(ip.total_length - net::kIpv4MinHeaderLen);
        udp.encode(std::span{f}.subspan(net::kEthernetHeaderLen + net::kIpv4MinHeaderLen));
        return f;
    }();
    return frame;
}

}  // namespace capbench::capture
