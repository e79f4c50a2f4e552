// Zero-allocation guard: replaces global operator new/delete with counting
// versions and asserts that the DES steady state — the event loop and the
// synthetic/full packet paths — performs no heap allocation after warmup.
//
// This is its own binary (NOT part of capbench_tests): the global
// replacement affects every allocation in the process, and sanitizer
// builds interpose their own allocator, so the checks are skipped there.
#include <execinfo.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <streambuf>

#include <gtest/gtest.h>

#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/capture/os.hpp"
#include "capbench/capture/rss.hpp"
#include "capbench/dist/builtin.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/testbed.hpp"
#include "capbench/hostsim/machine.hpp"
#include "capbench/net/arena.hpp"
#include "capbench/net/link.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/net/packet.hpp"
#include "capbench/obs/observer.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/pktgen/pktgen.hpp"
#include "capbench/sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

bool sanitizers_active() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

/// Debugging aid: set to true around a failing guarded region to dump a
/// backtrace (to stderr) for every allocation it performs.
std::atomic<bool> g_report{false};

void* counted_alloc(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (g_report.load(std::memory_order_relaxed)) {
        g_report.store(false);
        void* frames[32];
        const int n = backtrace(frames, 32);
        backtrace_symbols_fd(frames, n, 2);
        g_report.store(true);
    }
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

namespace sim = capbench::sim;
namespace net = capbench::net;
namespace pktgen = capbench::pktgen;

#define SKIP_UNDER_SANITIZERS()                                                       \
    if (sanitizers_active())                                                          \
    GTEST_SKIP() << "sanitizer runtime interposes the allocator; counts meaningless"

/// Allocations performed while running `body`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    body();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

struct ChainEvent {
    sim::Simulator* sim;
    std::uint64_t* remaining;
    void operator()() const {
        if (*remaining == 0) return;
        --*remaining;
        sim->schedule_in(sim::Duration{100}, ChainEvent{*this});
    }
};

TEST(AllocGuard, SteadyStateEventLoopDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    sim::Simulator sim;
    std::uint64_t remaining = 10'000;
    for (int chain = 0; chain < 8; ++chain)
        sim.schedule_in(sim::Duration{chain + 1}, ChainEvent{&sim, &remaining});
    sim.run();  // warmup: grows the slab and the heap to final size
    ASSERT_EQ(remaining, 0u);

    remaining = 100'000;
    for (int chain = 0; chain < 8; ++chain)
        sim.schedule_in(sim::Duration{chain + 1}, ChainEvent{&sim, &remaining});
    const std::uint64_t allocs = allocations_during([&] { sim.run(); });
    EXPECT_EQ(remaining, 0u);
    EXPECT_EQ(allocs, 0u) << "event loop allocated in steady state";
}

/// Thread that issues back-to-back user chunks forever.
class Spinner final : public capbench::hostsim::Thread {
public:
    Spinner() : Thread("spinner") {}
    void main() override { spin(); }
    std::uint64_t chunks = 0;

private:
    void spin() {
        exec(capbench::hostsim::Work{.cycles = 18'000}, capbench::hostsim::CpuState::kUser,
             [this] {
                 ++chunks;
                 spin();
             });
    }
};

/// Posts two kernel items on CPU 0 every 3 us, the second queued behind
/// the first; each one preempts the chunk running there.
struct KernelPoster {
    capbench::hostsim::Machine* machine;
    std::uint64_t* completed;
    void operator()() const {
        for (int i = 0; i < 2; ++i)
            machine->post_kernel_work(capbench::hostsim::Work{.cycles = 900},
                                      capbench::hostsim::CpuState::kInterrupt,
                                      [c = completed] { ++*c; });
        machine->sim().schedule_in(sim::microseconds(3), KernelPoster{*this});
    }
};

TEST(AllocGuard, PreemptedChunkChurnDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    namespace hostsim = capbench::hostsim;
    sim::Simulator sim;
    hostsim::Machine machine{sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 1, false},
                             {}};
    auto spinner = std::make_shared<Spinner>();
    machine.spawn(spinner);
    std::uint64_t completed = 0;
    sim.schedule_in(sim::microseconds(1), KernelPoster{&machine, &completed});
    sim.run(sim.now() + sim::milliseconds(1));  // warmup: slab, heap and FIFO at final size

    const std::uint64_t chunks_before = spinner->chunks;
    const std::uint64_t completed_before = completed;
    const std::uint64_t allocs =
        allocations_during([&] { sim.run(sim.now() + sim::milliseconds(10)); });
    // 10 ms of 10 us chunks, each preempted about three times.
    EXPECT_GT(spinner->chunks - chunks_before, 400u);
    EXPECT_GT(completed - completed_before, 6'000u);
    EXPECT_EQ(allocs, 0u) << "kernel posts preempting a running chunk allocated";
}

/// Sink that retains each packet briefly (one in flight), like a capture
/// buffer slot, then drops it back to the arena.
struct RetainOneSink final : net::FrameSink {
    net::PacketPtr held;
    std::uint64_t frames = 0;
    void on_frame(const net::PacketPtr& packet) override {
        held = packet;
        ++frames;
    }
};

TEST(AllocGuard, SyntheticPacketPathDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    sim::Simulator sim;
    net::Link link(sim);
    RetainOneSink sink;
    link.attach(sink);

    pktgen::GenConfig config;
    config.count = 2'000;
    config.packet_size = 1500;
    config.full_bytes = false;
    pktgen::Generator gen(sim, link, pktgen::GenNicModel::syskonnect(), config);

    gen.start(sim.now());
    sim.run();  // warmup: arena node freelist and event slab reach steady size
    ASSERT_EQ(sink.frames, 2'000u);

    gen.config().count = 20'000;
    sink.frames = 0;
    gen.start(sim.now());
    const std::uint64_t allocs = allocations_during([&] { sim.run(); });
    EXPECT_EQ(sink.frames, 20'000u);
    EXPECT_EQ(allocs, 0u) << "pktgen -> link -> sink synthetic path allocated";
}

TEST(AllocGuard, BsdBpfFetchLoopDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    namespace capture = capbench::capture;
    namespace hostsim = capbench::hostsim;
    sim::Simulator sim;
    hostsim::Machine machine{
        sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 2, false}, {}};
    // 4096-byte halves: four 1000-byte packets (1020-byte slots) fill a
    // half, the fifth rotates — fetch/recycle runs every few packets.
    capture::BsdBpfDev dev{machine, capture::OsSpec::freebsd_5_4(), 4096, 1515};
    auto arena = capbench::net::PacketArena::create();
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            const capbench::net::PacketPtr p = arena->make_full(i, 1000, sim::SimTime{});
            dev.plan(p);
            dev.commit(capture::CaptureRecord::of(p, false), 0, 0);
            if (auto batch = dev.fetch(64)) dev.recycle(std::move(batch->packets));
        }
    };
    churn(64);  // warmup: store/hold/spare vectors reach steady capacity
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "bsd_bpf deliver/fetch/recycle loop allocated";
    EXPECT_GT(dev.stats().delivered, 0u);
    // Buffered records pin no payload: every packet reuses the first one.
    EXPECT_EQ(arena->stats().payload_allocs, 1u);
}

TEST(AllocGuard, LinuxSocketFetchLoopDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    namespace capture = capbench::capture;
    namespace hostsim = capbench::hostsim;
    sim::Simulator sim;
    hostsim::Machine machine{
        sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 2, false}, {}};
    capture::LinuxPacketSocket sock{machine, capture::OsSpec::linux_2_6_11(), 1 << 20, 1515};
    auto arena = capbench::net::PacketArena::create();
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            const capbench::net::PacketPtr p = arena->make_full(i, 1000, sim::SimTime{});
            sock.plan(p);
            sock.commit(capture::CaptureRecord::of(p, false), 0, 0);
            if ((i & 7) == 7) {
                if (auto batch = sock.fetch(8)) sock.recycle(std::move(batch->packets));
            }
        }
    };
    churn(64);  // warmup: receive queue and batch vector reach steady capacity
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "linux_socket deliver/fetch/recycle loop allocated";
    EXPECT_GT(sock.stats().delivered, 0u);
    EXPECT_EQ(arena->stats().payload_allocs, 1u);
}

TEST(AllocGuard, MmapRingFetchLoopDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    namespace capture = capbench::capture;
    namespace hostsim = capbench::hostsim;
    sim::Simulator sim;
    hostsim::Machine machine{
        sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 2, false}, {}};
    capture::MmapRing ring{machine, capture::OsSpec::linux_2_6_11(), 64 * 2048, 1515};
    auto arena = capbench::net::PacketArena::create();
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            const capbench::net::PacketPtr p = arena->make_full(i, 1000, sim::SimTime{});
            ring.plan(p);
            ring.commit(capture::CaptureRecord::of(p, false), 0, 0);
            if ((i & 7) == 7) {
                if (auto batch = ring.fetch(8)) ring.recycle(std::move(batch->packets));
            }
        }
    };
    churn(64);  // warmup: ring buffer and batch vector reach steady capacity
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "mmap_ring deliver/fetch/recycle loop allocated";
    EXPECT_GT(ring.stats().delivered, 0u);
    EXPECT_EQ(arena->stats().payload_allocs, 1u);
}

/// A testbed warmed by complete 4,000-packet generation passes, so every
/// slab, freelist, ring and vector reaches its steady-state capacity.
/// `measured_pass()` then repeats the same generation window.  The
/// workload RNG runs on across passes, so high-water marks (verdict
/// backlogs, in-flight packets) keep creeping for a few passes before
/// every capacity plateaus (the whole run is deterministic, so so is the
/// plateau).
struct SteadyRun {
    static constexpr std::uint64_t kPassPackets = 4'000;

    capbench::harness::Testbed bed;
    bool done = false;

    SteadyRun(const capbench::harness::TestbedConfig& tb, int warmup_passes) : bed{tb} {
        // Reserve the sample sets for all passes: each keeps a sample per
        // packet of every pass.  The stamp FIFOs hold only packets in
        // flight and reach their size in warm-up.
        if (tb.observer != nullptr)
            tb.observer->reserve((warmup_passes + 1) * kPassPackets);
        bed.start_suts();
        for (int pass = 0; pass < warmup_passes; ++pass) {
            run_pass();
            // Let the capture stacks drain the backlog of the pass.
            bed.sim().run(bed.sim().now() + sim::milliseconds(50));
        }
    }

    void run_pass() {
        done = false;
        bed.generator().start(bed.sim().now(), [this] { done = true; });
        while (!done) bed.sim().step();
    }

    void measured_pass() { run_pass(); }
};

capbench::harness::TestbedConfig pass_config() {
    capbench::harness::TestbedConfig tb;
    tb.gen.count = SteadyRun::kPassPackets;
    tb.gen.size_dist.emplace(capbench::dist::mwn_trace_histogram());
    tb.gen.use_dist = true;
    return tb;
}

/// The Figure 6.2 testbed: all four sniffers, thesis packet size
/// distribution; four warmup passes reach its plateau.
capbench::harness::TestbedConfig fig62_config(capbench::obs::Observer* observer) {
    auto tb = pass_config();
    tb.observer = observer;
    tb.suts = capbench::harness::standard_suts();
    // Moderate rate: the capture stacks stay busy (drops included) without
    // pathological migration storms.
    tb.gen.rate_mbps = 400.0;
    return tb;
}

TEST(AllocGuard, Fig62SteadyStateDoesNotAllocateWhenTracingDisabled) {
    SKIP_UNDER_SANITIZERS();
    // ISSUE 5 satellite: the observability hooks must be strictly zero-cost
    // when disabled — a full figure-6.2 run's steady state stays
    // allocation-free exactly as it was before the hooks existed.
    SteadyRun run{fig62_config(nullptr), 4};
    const std::uint64_t allocs = allocations_during([&] { run.measured_pass(); });
    EXPECT_EQ(run.bed.generator().stats().packets_sent, 4'000u);
    EXPECT_EQ(allocs, 0u) << "fig 6.2 steady state allocated with tracing disabled";
}

TEST(AllocGuard, Fig62SteadyStateAllocationsBoundedWhenTracingEnabled) {
    SKIP_UNDER_SANITIZERS();
    // With tracing on, the only steady-state allocations allowed are trace
    // chunk growth (one slab per kChunkEvents events) plus a small slack
    // for sample-set growth past the reserved capacity.
    capbench::obs::TraceSink sink;
    capbench::obs::Observer observer{&sink};
    SteadyRun run{fig62_config(&observer), 4};
    const std::uint64_t chunks_before = sink.chunk_count();
    const std::uint64_t allocs = allocations_during([&] { run.measured_pass(); });
    const std::uint64_t chunk_growth = sink.chunk_count() - chunks_before;
    EXPECT_EQ(run.bed.generator().stats().packets_sent, 4'000u);
    EXPECT_GT(sink.event_count(), 0u);
    // Each chunk is one unique_ptr + one array allocation.
    EXPECT_LE(allocs, 2 * chunk_growth + 16)
        << "tracing-enabled steady state allocated beyond trace-buffer growth "
        << "(chunks grew by " << chunk_growth << ")";
}

TEST(AllocGuard, MultiqueueSteadyStateDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    // One swan with four RSS queues on four cores at full rate, 4096 flows
    // through the indirection table: per-queue rings, IRQ spreading and the
    // per-CPU kernel lanes.  Five warmup passes grow the arena's free list
    // past the in-flight high-water mark the measured pass reaches.
    auto tb = pass_config();
    tb.suts = {capbench::harness::standard_sut("swan")};
    capbench::harness::apply_increased_buffers(tb.suts);
    tb.suts[0].cores = 4;
    tb.suts[0].nic.queues = 4;
    tb.gen.flow_count = 4096;
    SteadyRun run{tb, 5};
    const std::uint64_t allocs = allocations_during([&] { run.measured_pass(); });
    EXPECT_EQ(run.bed.generator().stats().packets_sent, SteadyRun::kPassPackets);
    EXPECT_EQ(allocs, 0u) << "4-queue swan steady state allocated";
}

/// The Figure 6.6 frame mix: one full-bytes frame per size, synthesized by
/// the generator.
std::vector<std::vector<std::byte>> fig66_frames() {
    std::vector<std::vector<std::byte>> frames;
    for (const std::uint32_t size : {64u, 128u, 256u, 645u, 1024u, 1514u}) {
        sim::Simulator sim;
        net::Link link{sim};
        RetainOneSink sink;
        link.attach(sink);
        pktgen::GenConfig config;
        config.count = 1;
        config.packet_size = size;
        config.full_bytes = true;
        pktgen::Generator gen{sim, link, pktgen::GenNicModel::syskonnect(), config};
        gen.start(sim.now());
        sim.run();
        const auto bytes = sink.held->bytes();
        frames.emplace_back(bytes.begin(), bytes.end());
    }
    return frames;
}

/// Runs `filter` over the Figure 6.6 frame mix and returns the
/// allocations of 1,000 rounds after one warmup round.
template <typename Filter>
std::uint64_t filter_allocations(Filter&& filter) {
    const auto frames = fig66_frames();
    std::uint64_t executed = 0;
    const auto rounds = [&](int n) {
        for (int i = 0; i < n; ++i)
            for (const auto& frame : frames) executed += filter(frame).insns_executed;
    };
    rounds(1);
    const std::uint64_t allocs = allocations_during([&] { rounds(1'000); });
    EXPECT_GT(executed, 0u);
    return allocs;
}

TEST(AllocGuard, FlowHashDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    net::Packet packet{0, 64, sim::SimTime{}};
    std::uint64_t sum = 0;  // not a XOR: the hash is linear, so XORs may cancel
    const std::uint64_t allocs = allocations_during([&] {
        for (std::uint32_t i = 0; i < 100'000; ++i) {
            packet.set_flow(net::FlowTuple{i, ~i, static_cast<std::uint16_t>(i),
                                           static_cast<std::uint16_t>(i >> 16)});
            sum += capbench::capture::rss::flow_hash(packet);
        }
    });
    EXPECT_NE(sum, 0u);
    EXPECT_EQ(allocs, 0u) << "rss::flow_hash allocated per packet";
}

TEST(AllocGuard, InterpreterFilterRunDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    namespace bpf = capbench::bpf;
    const auto prog = bpf::filter::compile_filter(
        capbench::harness::fig_6_5_filter_expression(), 1515);
    EXPECT_EQ(filter_allocations([&](const auto& frame) { return bpf::Vm::run(prog, frame); }),
              0u)
        << "bpf::Vm::run allocated per packet";
}

TEST(AllocGuard, JitFilterRunDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    namespace bpf = capbench::bpf;
    if (!bpf::JitProgram::supported()) GTEST_SKIP() << "no native jit on this build";
    const auto prog = bpf::filter::compile_filter(
        capbench::harness::fig_6_5_filter_expression(), 1515);
    const auto jitted = bpf::JitProgram::compile(prog);
    EXPECT_EQ(filter_allocations([&](const auto& frame) { return jitted->run(frame); }), 0u)
        << "JitProgram::run allocated per packet";
}

TEST(AllocGuard, TimeseriesPushesAreDoublingBounded) {
    SKIP_UNDER_SANITIZERS();
    // Steady-state interval sampling may allocate only when a column's
    // capacity doubles: at most one allocation per doubling.
    capbench::obs::Series series;
    for (int i = 0; i < 64; ++i) series.push(i);  // warmup: capacity 64
    constexpr int kPushes = 100'000;
    std::uint64_t doublings = 0;
    for (std::size_t cap = 64; cap < 64 + kPushes; cap *= 2) ++doublings;
    const std::uint64_t allocs = allocations_during([&] {
        for (int i = 0; i < kPushes; ++i) series.push(i);
    });
    EXPECT_GT(allocs, 0u);
    EXPECT_LE(allocs, doublings)
        << "Series pushes allocated beyond capacity doubling (" << doublings
        << " doublings)";
}

/// Fixed-size sink for pcap output: accepts bytes without buffering them,
/// so the stream itself never allocates (a stringstream would grow).
struct NullBuf final : std::streambuf {
    std::uint64_t bytes = 0;
    int_type overflow(int_type ch) override {
        ++bytes;
        return ch;
    }
    std::streamsize xsputn(const char*, std::streamsize n) override {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

TEST(AllocGuard, PcapWriterSteadyStateDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    // ISSUE 9 satellite: FileWriter must be allocation-free in steady state
    // for both real payloads (streamed straight from the arena buffer) and
    // synthetic packets (pooled zero padding, grown once).
    namespace pcap = capbench::pcap;
    NullBuf buf;
    std::ostream out{&buf};
    pcap::FileWriter writer{out, 1515};
    auto arena = net::PacketArena::create();
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            if ((i & 3) == 0) {
                auto synth = arena->make_synthetic(i, 1500, sim::SimTime{});
                writer.write(*synth, 76, sim::SimTime{static_cast<std::int64_t>(i)});
            } else {
                auto full = arena->make_full(i, 1000, sim::SimTime{});
                writer.write(*full, 1000, sim::SimTime{static_cast<std::int64_t>(i)});
            }
        }
    };
    churn(64);  // warmup: zero pool and arena freelists reach steady size
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "pcap FileWriter allocated in steady state";
    EXPECT_GT(buf.bytes, 0u);
}

TEST(AllocGuard, BringRingHandOffDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    // The capture-to-writer hand-off: arena record in, ring push/pop,
    // pcap write out.  The whole cycle must be allocation-free once the
    // ring slots and pools are warm.
    namespace pcap = capbench::pcap;
    namespace load = capbench::load;
    NullBuf buf;
    std::ostream out{&buf};
    pcap::FileWriter writer{out, 1515};
    load::BringRing ring{32};
    auto arena = net::PacketArena::create();
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            ring.push(load::RecordRef{arena->make_full(i, 500, sim::SimTime{}), 500, 576,
                                      sim::SimTime{static_cast<std::int64_t>(i)}});
            if (ring.full()) {
                while (!ring.empty()) {
                    load::RecordRef rec = ring.pop();
                    writer.write(*rec.packet, rec.caplen, rec.timestamp);
                }
            }
        }
    };
    churn(256);  // warmup: ring slots, zero pool, freelists reach steady size
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "bring-ring hand-off loop allocated in steady state";
    EXPECT_GT(writer.records_written(), 0u);
}

TEST(AllocGuard, ArenaFullPacketChurnDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    auto arena = net::PacketArena::create();
    std::vector<net::PacketPtr> window(64);
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i)
            window[i % window.size()] = arena->make_full(i, 1500, sim::SimTime{});
    };
    churn(256);  // warmup: window fills, freelists reach steady size
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "arena full-packet churn allocated in steady state";
    EXPECT_GT(arena->stats().node_reuses, 0u);
    EXPECT_GT(arena->stats().payload_reuses, 0u);
}

}  // namespace
