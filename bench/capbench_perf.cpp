// capbench_perf: wall-clock performance of the simulator itself.
//
// The figure benches answer "what does the model predict?"; this binary
// answers "how fast does the simulator get there?".  It times three macro
// scenarios straight from the Chapter 6 set — the Figure 6.2 baseline
// (synthetic packets), the Figure 6.6 filter run (full frame bytes through
// the BPF VM) and the Figure 6.8 four-application run (scheduler heavy) —
// plus micro loops over the DES hot paths (event scheduling, event
// cancellation, dense concurrent timers, arena packet recycling).
// Results go to stdout and, with --json, into a schema-stable
// capbench.perf.v1 document that CI and BENCH_*.json snapshots consume.
//
// Numbers are machine-dependent: compare only documents produced on the
// same host and build type (see EXPERIMENTS.md).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "capbench/bpf/decoded.hpp"
#include "capbench/capture/rss.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/net/arena.hpp"
#include "capbench/net/link.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/pktgen/pktgen.hpp"
#include "capbench/report/json.hpp"
#include "capbench/report/perf.hpp"
#include "capbench/sim/simulator.hpp"

#ifndef CAPBENCH_BUILD_TYPE
#define CAPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using capbench::harness::RunConfig;
using capbench::harness::SutConfig;
using capbench::report::PerfCase;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

PerfCase run_macro(std::string name, const std::vector<SutConfig>& suts, const RunConfig& cfg) {
    const auto t0 = Clock::now();
    const capbench::harness::RunResult r = capbench::harness::run_once(suts, cfg);
    const double wall = seconds_since(t0);
    PerfCase c;
    c.name = std::move(name);
    c.kind = "macro";
    c.wall_seconds = wall;
    c.events = r.events_executed;
    c.sim_packets = r.generated;
    c.events_per_sec = wall > 0 ? static_cast<double>(r.events_executed) / wall : 0.0;
    c.packets_per_sec = wall > 0 ? static_cast<double>(r.generated) / wall : 0.0;
    return c;
}

PerfCase micro_case(std::string name, std::uint64_t iters, double wall) {
    PerfCase c;
    c.name = std::move(name);
    c.kind = "micro";
    c.wall_seconds = wall;
    c.events = iters;
    c.events_per_sec = wall > 0 ? static_cast<double>(iters) / wall : 0.0;
    return c;
}

/// Self-rescheduling event: the steady-state shape of the DES hot loop
/// (pop one event, push one event).  16 bytes, stored inline.
struct ChainEvent {
    capbench::sim::Simulator* sim;
    std::uint64_t* remaining;

    void operator()() const {
        if (*remaining == 0) return;
        --*remaining;
        sim->schedule_in(capbench::sim::Duration{100}, ChainEvent{*this});
    }
};

PerfCase micro_event_loop(std::uint64_t iters) {
    capbench::sim::Simulator sim;
    std::uint64_t remaining = iters;
    for (int chain = 0; chain < 8; ++chain)
        sim.schedule_in(capbench::sim::Duration{chain + 1}, ChainEvent{&sim, &remaining});
    const auto t0 = Clock::now();
    sim.run();
    return micro_case("event_queue_hot_loop", iters, seconds_since(t0));
}

PerfCase micro_cancel_churn(std::uint64_t iters) {
    capbench::sim::Simulator sim;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        // A timeout that never fires plus the event that beats it: the
        // pattern the machine model produces on every preempted chunk.
        auto doomed = sim.schedule_in(capbench::sim::Duration{1000}, [] {});
        sim.schedule_in(capbench::sim::Duration{10}, [] {});
        doomed.cancel();
        sim.step();
    }
    sim.run();
    return micro_case("event_cancel_churn", iters, seconds_since(t0));
}

/// A self-rescheduling timer with a fixed period — one of ~1k running
/// concurrently, the dense steady state that keeps the heap ~1k deep.
struct DenseTimer {
    capbench::sim::Simulator* sim;
    std::uint64_t* remaining;
    std::int64_t period;

    void operator()() const {
        if (*remaining == 0) return;
        --*remaining;
        sim->schedule_in(capbench::sim::Duration{period}, DenseTimer{*this});
    }
};

PerfCase micro_dense_timer(std::uint64_t iters) {
    capbench::sim::Simulator sim;
    constexpr int kTimers = 1024;
    std::uint64_t remaining = iters;
    for (int i = 0; i < kTimers; ++i) {
        // Coprime-ish periods spread firings out instead of phase-locking
        // every timer onto the same tick.
        const std::int64_t period = 100 + 7 * (i % 97);
        sim.schedule_in(capbench::sim::Duration{period},
                        DenseTimer{&sim, &remaining, period});
    }
    const auto t0 = Clock::now();
    sim.run();
    return micro_case("dense_timer_steady", iters, seconds_since(t0));
}

/// Defeats constant propagation of a value so a branch on it is really
/// executed (the observability hooks are `if (trace_) ...` at every site;
/// this measures that branch, not dead code).
template <typename T>
void opaque(T& value) {
    asm volatile("" : "+r"(value));
}

/// The tracing fast path as seen from an instrumented call site: a null
/// check plus, when enabled, one slab push of a POD event.  `sink == null`
/// measures the disabled cost (what every figure run pays per hook when no
/// --trace is given); a live sink measures the enabled emit cost including
/// amortized chunk growth.
PerfCase micro_trace_hook(capbench::obs::TraceSink* sink, std::string name,
                          std::uint64_t iters) {
    const char* slice = sink != nullptr ? sink->intern("slice") : nullptr;
    const char* cat = sink != nullptr ? sink->intern("user") : nullptr;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        capbench::obs::TraceSink* t = sink;
        opaque(t);
        if (t != nullptr) {
            const auto start = capbench::sim::SimTime{static_cast<std::int64_t>(i) * 1000};
            t->complete(1, capbench::obs::kThreadTidBase, slice, cat, start,
                        start + capbench::sim::Duration{500});
        }
    }
    double wall = seconds_since(t0);
    opaque(wall);  // keep the empty-body disabled loop observable
    return micro_case(std::move(name), iters, wall);
}

/// The time-series sampler as seen from the measurement loop: when no
/// --timeseries sink is configured the per-site cost is one null check
/// (what every figure run pays), and when sampling is on the dominant
/// steady-state cost is one slab-chunked Series::push per sampled column,
/// including amortized chunk growth.
PerfCase micro_timeseries_tick(bool enabled, std::string name, std::uint64_t iters) {
    capbench::obs::Series series;
    capbench::obs::Series* live = enabled ? &series : nullptr;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        capbench::obs::Series* s = live;
        opaque(s);
        if (s != nullptr) s->push(static_cast<std::int64_t>(i & 1023));
    }
    double wall = seconds_since(t0);
    opaque(wall);  // keep the empty-body disabled loop observable
    return micro_case(std::move(name), iters, wall);
}

/// One full-bytes frame of the given size, synthesized by the generator
/// (the same packets the Figure 6.6 macro run filters).
std::vector<std::byte> synth_frame(std::uint32_t size) {
    capbench::sim::Simulator sim;
    capbench::net::Link link{sim};
    capbench::pktgen::GenConfig cfg;
    cfg.count = 1;
    cfg.packet_size = size;
    cfg.full_bytes = true;
    capbench::pktgen::Generator gen{sim, link, capbench::pktgen::GenNicModel::syskonnect(),
                                    std::move(cfg)};
    struct Sink : capbench::net::FrameSink {
        capbench::net::PacketPtr packet;
        void on_frame(const capbench::net::PacketPtr& p) override { packet = p; }
    } sink;
    link.attach(sink);
    gen.start(capbench::sim::SimTime{});
    sim.run();
    const auto bytes = sink.packet->bytes();
    return {bytes.begin(), bytes.end()};
}

/// The Figure 6.5 filter-cost micro, one case per execution tier: the
/// optimized 50-instruction program over a frame-size mix — interpreter
/// (`Vm`) and the native x86-64 tier (`JitProgram` on the pre-decoded
/// program).  Both tiers execute the same instruction stream, so the ratio
/// isolates dispatch + bounds-check-elision + codegen gains.
enum class FilterTier { kInterpreter, kJit };

PerfCase micro_filter_tier(FilterTier tier, std::uint64_t iters) {
    const auto prog = capbench::bpf::filter::compile_filter(
        capbench::harness::fig_6_5_filter_expression(), 1515);
    const auto verified = capbench::bpf::verify(prog);
    const auto decoded = capbench::bpf::decode(prog, verified.facts);
    const auto jitted = tier == FilterTier::kJit
                            ? capbench::bpf::JitProgram::compile(decoded)
                            : std::shared_ptr<const capbench::bpf::JitProgram>{};
    std::vector<std::vector<std::byte>> frames;
    for (const std::uint32_t size : {64u, 128u, 256u, 645u, 1024u, 1514u})
        frames.push_back(synth_frame(size));
    std::uint32_t sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        const auto& frame = frames[i % frames.size()];
        sum += tier == FilterTier::kJit
                   ? jitted->run(frame, static_cast<std::uint32_t>(frame.size())).accept_len
                   : capbench::bpf::Vm::run(prog, frame).accept_len;
    }
    const double wall = seconds_since(t0);
    opaque(sum);
    return micro_case(tier == FilterTier::kJit ? "filter_jit_fig65" : "filter_interpreter_fig65",
                      iters, wall);
}

/// The per-packet RSS cost a multi-queue NIC pays: one Toeplitz 4-tuple
/// hash (96 input bits, bit-serial) per iteration over varying tuples.
PerfCase micro_rss_hash(std::uint64_t iters) {
    const auto& key = capbench::capture::rss::microsoft_key();
    std::uint32_t sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        const auto mix = static_cast<std::uint32_t>(i * 0x9E3779B1u);
        sum += capbench::capture::rss::hash_ipv4_ports(
            key, 0xc0a80000u | (mix & 0xffffu), 0x0a000000u | (mix >> 16),
            static_cast<std::uint16_t>(1024 + (i % 977)), 80);
    }
    const double wall = seconds_since(t0);
    opaque(sum);
    return micro_case("rss_toeplitz_hash", iters, wall);
}

PerfCase micro_arena_churn(std::uint64_t iters) {
    auto arena = capbench::net::PacketArena::create();
    // A sliding window of live packets, as the splitter and capture
    // buffers produce: every iteration allocates one packet and frees the
    // one from 64 iterations ago.
    std::vector<capbench::net::PacketPtr> window(64);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        window[i % window.size()] =
            arena->make_full(i, 1500, capbench::sim::SimTime{});
    }
    const double wall = seconds_since(t0);
    return micro_case("arena_packet_churn", iters, wall);
}

/// Discards pcap bytes without buffering: isolates record formatting and
/// the ring hand-off from stream growth.
struct DevNullBuf final : std::streambuf {
    int_type overflow(int_type ch) override { return ch; }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// The capture-to-disk hot cycle: stage an arena-backed record, push it
/// through the bring ring in bursts of 32 (one writer batch), pop and
/// format it as a pcap record into a null sink.  Allocation-free in steady
/// state — this is the per-record cost the writer pipeline adds over the
/// inline model's plain accounting.
PerfCase micro_pcap_ring_handoff(std::uint64_t iters) {
    namespace load = capbench::load;
    auto arena = capbench::net::PacketArena::create();
    DevNullBuf buf;
    std::ostream out{&buf};
    capbench::pcap::FileWriter writer{out, 1515};
    load::BringRing ring{32};
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        ring.push(load::RecordRef{arena->make_full(i, 1500, capbench::sim::SimTime{}), 76,
                                  76, capbench::sim::SimTime{static_cast<std::int64_t>(i)}});
        if (ring.full()) {
            while (!ring.empty()) {
                const load::RecordRef rec = ring.pop();
                writer.write(*rec.packet, rec.caplen, rec.timestamp);
            }
        }
    }
    const double wall = seconds_since(t0);
    auto written = writer.records_written();
    opaque(written);
    return micro_case("pcap_ring_handoff", iters, wall);
}

void print_case(const PerfCase& c) {
    std::cout << "  " << c.name << " [" << c.kind << "]: " << c.wall_seconds << " s";
    if (c.sim_packets > 0) std::cout << ", " << c.packets_per_sec << " packets/s";
    std::cout << ", " << c.events_per_sec << " events/s\n";
}

int usage(int code) {
    std::cerr << "usage: capbench_perf [--quick] [--packets N] [--json <path>]\n"
                 "\n"
                 "  --quick        CI smoke sizing (~seconds instead of ~minutes)\n"
                 "  --packets N    packets per macro run (default 200000; quick 20000)\n"
                 "  --json <path>  write a capbench.perf.v1 document\n";
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::uint64_t packets = 0;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--packets" && i + 1 < argc) {
            packets = std::stoull(argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            return usage(0);
        } else {
            std::cerr << "capbench_perf: unknown argument '" << arg << "'\n";
            return usage(2);
        }
    }
    if (packets == 0) packets = quick ? 20'000 : 200'000;
    const std::uint64_t micro_iters = quick ? 200'000 : 2'000'000;

    capbench::report::PerfReport report;
    report.packets_per_macro_run = packets;
    report.seed = 1;
    report.quick = quick;
    report.build_type = CAPBENCH_BUILD_TYPE;

    RunConfig base;
    base.packets = packets;
    base.rate_mbps = 0.0;  // maximum speed: the most event-dense operating point
    base.seed = report.seed;

    std::cout << "capbench_perf (" << report.build_type << ", " << packets
              << " packets/macro run)\n";

    // Figure 6.2 baseline: four SUTs, default buffers, synthetic packets.
    report.cases.push_back(
        run_macro("fig_6_2_baseline", capbench::harness::standard_suts(), base));
    print_case(report.cases.back());
    {
        // Figure 6.6: the 50-instruction filter over real frame bytes.
        auto suts = capbench::harness::standard_suts();
        capbench::harness::apply_increased_buffers(suts);
        for (auto& sut : suts)
            sut.filter_expression = capbench::harness::fig_6_5_filter_expression();
        RunConfig cfg = base;
        cfg.full_bytes = true;
        report.cases.push_back(run_macro("fig_6_6_filter", suts, cfg));
        print_case(report.cases.back());
    }
    {
        // Figure 6.8: four capturing applications per SUT (scheduler heavy).
        auto suts = capbench::harness::standard_suts();
        capbench::harness::apply_increased_buffers(suts);
        for (auto& sut : suts) sut.app_count = 4;
        report.cases.push_back(run_macro("fig_6_8_multiapp4", suts, base));
        print_case(report.cases.back());
    }
    {
        // Multi-queue receive: one swan, four RSS queues on four cores,
        // 4096 flows through the indirection table (per-queue rings,
        // IRQ spreading and per-CPU kernel lanes all in play).
        std::vector<SutConfig> suts{capbench::harness::standard_sut("swan")};
        capbench::harness::apply_increased_buffers(suts);
        suts[0].cores = 4;
        suts[0].nic.queues = 4;
        RunConfig cfg = base;
        cfg.flow_count = 4096;
        report.cases.push_back(run_macro("multiqueue_dispatch", suts, cfg));
        print_case(report.cases.back());
    }
    report.cases.push_back(micro_event_loop(micro_iters));
    print_case(report.cases.back());
    report.cases.push_back(micro_cancel_churn(micro_iters));
    print_case(report.cases.back());
    report.cases.push_back(micro_dense_timer(micro_iters));
    print_case(report.cases.back());

    report.cases.push_back(micro_arena_churn(micro_iters));
    print_case(report.cases.back());

    report.cases.push_back(micro_rss_hash(micro_iters));
    print_case(report.cases.back());

    report.cases.push_back(micro_pcap_ring_handoff(micro_iters));
    print_case(report.cases.back());

    report.cases.push_back(micro_filter_tier(FilterTier::kInterpreter, micro_iters));
    print_case(report.cases.back());
    if (capbench::bpf::JitProgram::supported()) {
        report.cases.push_back(micro_filter_tier(FilterTier::kJit, micro_iters));
        print_case(report.cases.back());
    }

    report.cases.push_back(micro_trace_hook(nullptr, "trace_hook_disabled", micro_iters));
    print_case(report.cases.back());
    {
        capbench::obs::TraceSink sink;
        report.cases.push_back(micro_trace_hook(&sink, "trace_emit_enabled", micro_iters));
        print_case(report.cases.back());
    }

    report.cases.push_back(
        micro_timeseries_tick(false, "timeseries_tick_disabled", micro_iters));
    print_case(report.cases.back());
    report.cases.push_back(
        micro_timeseries_tick(true, "timeseries_tick_enabled", micro_iters));
    print_case(report.cases.back());

    const capbench::report::JsonValue doc = capbench::report::perf_document(report);
    const std::string text = capbench::report::dump_json(doc) + "\n";
    // Self-check: what we emit must round-trip and validate.
    capbench::report::validate_perf_document(capbench::report::parse_json(text));

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::binary);
        if (!out) {
            std::cerr << "capbench_perf: cannot write '" << json_path << "'\n";
            return 1;
        }
        out << text;
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
