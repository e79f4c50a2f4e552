#include "capbench/capture/tap.hpp"

#include <utility>
#include <vector>

#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/capture/os.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/net/wire.hpp"
#include "capbench/obs/observer.hpp"

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
    // Nothing is committed until verification passes, so a rejected
    // program leaves the previous filter fully installed.
    std::shared_ptr<const bpf::JitProgram> jitted;
    if (!program.empty()) {
        const bpf::ExecTier tier =
            bpf::effective_tier(bpf::exec_tier(), bpf::JitProgram::supported());
        if (tier == bpf::ExecTier::kInterpreter) {
            bpf::verify_or_throw(program);
        } else {
            // Verifies (throws on rejection); compiles native code at most
            // once per distinct program.
            jitted = bpf::cache_filter(program);
        }
    }
    program_ = std::move(program);
    jit_ = std::move(jitted);
}

void StackEndpoint::install_filter(bpf::Program program) {
    filter_.install(std::move(program));
    if (app_obs_ != nullptr) app_obs_->filter_installed(filter_.jitted_insns());
}

hostsim::Work StackEndpoint::plan(const net::PacketPtr& packet) {
    ++stats_.kernel_seen;
    const FilterRunner::Verdict verdict = filter_.run(*packet, snaplen_);
    pending_.push(verdict);
    // The tap's work plus the filter and the copy, scaled, with the
    // operations of Work::scaled() in its order; built from scalars, as a
    // Work updated in memory and reloaded whole stalls store forwarding.
    const hostsim::Work& tap = os_->tap_per_packet;
    const double cycles = tap.cycles + verdict.insns * os_->filter_cycles_per_insn;
    double copy_bytes = tap.copy_bytes;
    double working_set = tap.working_set_bytes;
    if (verdict.accept && copy_.copies_caplen) {
        copy_bytes += verdict.caplen;
        working_set = copy_.working_set_bytes.value_or(working_set);
    }
    const double factor = os_->kernel_cost_multiplier;
    return hostsim::Work{cycles * factor, tap.mem_misses * factor, copy_bytes * factor,
                         working_set};
}

void StackEndpoint::commit(const CaptureRecord& record, std::int64_t arrival,
                           std::int64_t handoff) {
    const FilterRunner::Verdict verdict = pending_.pop();
    if (!verdict.accept) {
        ++stats_.dropped_filter;
        if (verdict.aborted) ++stats_.filter_aborts;
        return;
    }
    ++stats_.accepted;
    CaptureRecord stored = record;
    stored.caplen = verdict.caplen;
    if (!store(std::move(stored))) {
        ++stats_.dropped_buffer;
        return;
    }
    if (app_obs_ != nullptr)
        app_obs_->enqueued(arrival, handoff, machine_->sim().now(),
                           [this] { return traced_occupancy(); });
}

std::optional<StackEndpoint::Batch> StackEndpoint::fetch(std::size_t max_packets) {
    Batch batch;
    batch.packets = std::move(spare_packets_);
    if (!read(max_packets, batch)) {
        spare_packets_ = std::move(batch.packets);
        return std::nullopt;
    }
    stats_.delivered += batch.packets.size();
    if (app_obs_ != nullptr)
        app_obs_->fetched(batch.packets.size(), [this] { return traced_occupancy(); },
                          machine_->sim().now());
    return batch;
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
