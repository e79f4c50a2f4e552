// Filter playground: compile a tcpdump-dialect expression with capbench's
// BPF compiler, show the generated program (like `tcpdump -d`) and run it
// against a few sample packets.
//
//   $ ./examples/filter_playground 'udp and dst host 192.168.10.12'
//   $ ./examples/filter_playground            # uses the Figure 6.5 filter
//   $ ./examples/filter_playground --lint 'tcp or udp'
//       static analysis: annotated disassembly + warnings (unreachable
//       code, uninitialized reads, filters that can never accept, ...)
//   $ ./examples/filter_playground --optimize
//       stock vs. optimized program side by side, with per-sample
//       executed-instruction counts
#include <cstdio>
#include <cstring>
#include <iostream>

#include "capbench/core/capbench.hpp"

namespace {

using namespace capbench;

std::vector<std::byte> make_frame(std::uint8_t protocol, const std::string& src_ip,
                                  const std::string& dst_ip, std::uint16_t dst_port) {
    std::vector<std::byte> frame(net::kEthernetHeaderLen + net::kIpv4MinHeaderLen +
                                 net::kUdpHeaderLen + 26);
    net::EthernetHeader eth;
    eth.dst = net::MacAddr::parse("00:0e:0c:01:02:03");
    eth.src = net::MacAddr::parse("00:00:00:00:00:01");
    eth.encode(frame);
    net::Ipv4Header ip;
    ip.total_length = static_cast<std::uint16_t>(frame.size() - net::kEthernetHeaderLen);
    ip.protocol = protocol;
    ip.src = net::Ipv4Addr::parse(src_ip);
    ip.dst = net::Ipv4Addr::parse(dst_ip);
    ip.encode(std::span{frame}.subspan(net::kEthernetHeaderLen));
    net::UdpHeader udp{1234, dst_port,
                       static_cast<std::uint16_t>(net::kUdpHeaderLen + 26), 0};
    udp.encode(std::span{frame}.subspan(net::kEthernetHeaderLen + net::kIpv4MinHeaderLen));
    return frame;
}

struct Sample {
    const char* label;
    std::vector<std::byte> frame;
};

std::vector<Sample> make_samples() {
    return {
        {"UDP 192.168.10.100 -> 192.168.10.12:9",
         make_frame(net::kIpProtoUdp, "192.168.10.100", "192.168.10.12", 9)},
        {"TCP 192.168.10.100 -> 192.168.10.12:80",
         make_frame(net::kIpProtoTcp, "192.168.10.100", "192.168.10.12", 80)},
        {"UDP 10.11.12.13 -> 192.168.10.12:53",
         make_frame(net::kIpProtoUdp, "10.11.12.13", "192.168.10.12", 53)},
        {"ICMP 192.168.10.1 -> 192.168.10.12",
         make_frame(net::kIpProtoIcmp, "192.168.10.1", "192.168.10.12", 0)},
    };
}

int run_default(const bpf::Program& prog) {
    std::printf("compiled to %zu instructions:\n%s\n", prog.size(),
                bpf::disassemble(prog).c_str());
    std::puts("sample packets:");
    for (const auto& sample : make_samples()) {
        const auto result = bpf::Vm::run(prog, sample.frame);
        std::printf("  %-42s -> %s (%u instructions executed)\n", sample.label,
                    result.accept_len > 0 ? "ACCEPT" : "reject", result.insns_executed);
    }
    return 0;
}

int run_lint(const bpf::Program& prog) {
    // Full verifier pipeline: validation, reachability/return structure,
    // abstract-interpretation findings, dead stores and return ranges.  Exits
    // nonzero on any error-severity finding so CI can gate on it.
    const auto result = bpf::verify(prog);
    std::printf("compiled to %zu instructions (unoptimized):\n%s\n", prog.size(),
                bpf::disassemble(prog, result.findings).c_str());
    if (result.findings.empty()) {
        std::puts("lint: clean — no findings");
        return 0;
    }
    std::printf("lint: %zu finding(s)\n", result.findings.size());
    for (const auto& f : result.findings)
        std::printf("  %s\n", to_string(f).c_str());
    return result.ok() ? 0 : 1;
}

int run_optimize(const bpf::Program& stock) {
    bpf::analysis::OptimizeStats stats;
    const auto optimized = bpf::analysis::optimize(stock, &stats);
    std::printf("stock program (%zu instructions):\n%s\n", stock.size(),
                bpf::disassemble(stock).c_str());
    std::printf("optimized program (%zu instructions, %d rounds):\n%s\n",
                optimized.size(), stats.rounds, bpf::disassemble(optimized).c_str());
    std::puts("sample packets (stock -> optimized executed instructions):");
    for (const auto& sample : make_samples()) {
        const auto before = bpf::Vm::run(stock, sample.frame);
        const auto after = bpf::Vm::run(optimized, sample.frame);
        std::printf("  %-42s -> %s  %u -> %u\n", sample.label,
                    after.accept_len > 0 ? "ACCEPT" : "reject", before.insns_executed,
                    after.insns_executed);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    enum class Mode { kRun, kLint, kOptimize } mode = Mode::kRun;
    int arg = 1;
    if (arg < argc && std::strcmp(argv[arg], "--lint") == 0) {
        mode = Mode::kLint;
        ++arg;
    } else if (arg < argc && std::strcmp(argv[arg], "--optimize") == 0) {
        mode = Mode::kOptimize;
        ++arg;
    }
    const std::string expression =
        arg < argc ? argv[arg] : harness::fig_6_5_filter_expression();

    std::printf("expression:\n  %s\n\n", expression.c_str());
    bpf::Program prog;
    try {
        // Lint and optimize modes inspect the raw emitted program; the
        // default mode shows what a capture session would actually run.
        const bpf::filter::CompileOptions options{.optimize = mode == Mode::kRun};
        prog = bpf::filter::compile_filter(expression, 1515, options);
    } catch (const bpf::filter::FilterError& e) {
        std::fprintf(stderr, "compile error: %s\n", e.what());
        return 1;
    }
    switch (mode) {
        case Mode::kLint: return run_lint(prog);
        case Mode::kOptimize: return run_optimize(prog);
        default: return run_default(prog);
    }
}
