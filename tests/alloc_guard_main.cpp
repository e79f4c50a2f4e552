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
#include <new>
#include <ostream>
#include <streambuf>

#include <gtest/gtest.h>

#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/capture/os.hpp"
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

TEST(AllocGuard, EventCancellationDoesNotAllocate) {
    SKIP_UNDER_SANITIZERS();
    sim::Simulator sim;
    const auto churn = [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            auto doomed = sim.schedule_in(sim::Duration{1000}, [] {});
            sim.schedule_in(sim::Duration{10}, [] {});
            doomed.cancel();
            sim.step();
        }
        sim.run();
    };
    churn(64);  // warmup
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "cancel/reschedule churn allocated in steady state";
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
            auto p = arena->make_full(i, 1000, sim::SimTime{});
            dev.plan(p);
            dev.commit(p);
            if (auto batch = dev.fetch(64)) dev.recycle(std::move(batch->packets));
        }
    };
    churn(64);  // warmup: store/hold/spare vectors reach steady capacity
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "bsd_bpf deliver/fetch/recycle loop allocated";
    EXPECT_GT(dev.stats().delivered, 0u);
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
            auto p = arena->make_full(i, 1000, sim::SimTime{});
            ring.plan(p);
            ring.commit(p);
            if ((i & 7) == 7) {
                if (auto batch = ring.fetch(8)) ring.recycle(std::move(batch->packets));
            }
        }
    };
    churn(64);  // warmup: ring buffer and batch vector reach steady capacity
    const std::uint64_t allocs = allocations_during([&] { churn(10'000); });
    EXPECT_EQ(allocs, 0u) << "mmap_ring deliver/fetch/recycle loop allocated";
    EXPECT_GT(ring.stats().delivered, 0u);
}

/// Builds the Figure 6.2 testbed (all four sniffers, thesis packet size
/// distribution) and runs one complete 4,000-packet generation pass as
/// warmup, so every slab, freelist, ring and vector reaches its
/// steady-state capacity.  `measured_pass()` then repeats the same
/// generation window on the warmed testbed.
struct Fig62Run {
    capbench::harness::Testbed bed;
    bool done = false;

    explicit Fig62Run(capbench::obs::Observer* observer)
        : bed{[&] {
              capbench::harness::TestbedConfig tb;
              tb.observer = observer;
              tb.suts = capbench::harness::standard_suts();
              tb.gen.count = 4'000;
              // Moderate rate: the capture stacks stay busy (drops included)
              // without pathological migration storms.
              tb.gen.rate_mbps = 400.0;
              tb.gen.size_dist.emplace(capbench::dist::mwn_trace_histogram());
              tb.gen.use_dist = true;
              return tb;
          }()} {
        // Reserve for all passes: the lifecycle observer keys per-packet
        // state by packet id, which keeps counting across restarts.
        if (observer != nullptr) observer->reserve(5 * 4'000);
        bed.start_suts();
        // Four warmup passes: the workload RNG runs on across passes, so
        // high-water marks (verdict backlogs, in-flight packets) keep
        // creeping for a few passes before every capacity plateaus (the
        // whole run is deterministic, so so is the plateau).
        for (int pass = 0; pass < 4; ++pass) {
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

TEST(AllocGuard, Fig62SteadyStateDoesNotAllocateWhenTracingDisabled) {
    SKIP_UNDER_SANITIZERS();
    // ISSUE 5 satellite: the observability hooks must be strictly zero-cost
    // when disabled — a full figure-6.2 run's steady state stays
    // allocation-free exactly as it was before the hooks existed.
    Fig62Run run{nullptr};
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
    Fig62Run run{&observer};
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

TEST(AllocGuard, TimeseriesPushesAreChunkGrowthBounded) {
    SKIP_UNDER_SANITIZERS();
    // ISSUE 10: steady-state interval sampling may allocate only on slab
    // growth — each full chunk costs one unique_ptr + one array, plus the
    // occasional pointer-vector doubling.
    capbench::obs::Series series;
    for (int i = 0; i < 64; ++i) series.push(i);  // warmup: first chunk exists
    const std::uint64_t chunks_before = series.chunk_count();
    const std::uint64_t allocs = allocations_during([&] {
        for (int i = 0; i < 100'000; ++i) series.push(i);
    });
    const std::uint64_t chunk_growth = series.chunk_count() - chunks_before;
    EXPECT_GT(chunk_growth, 0u);
    EXPECT_LE(allocs, 2 * chunk_growth + 16)
        << "Series pushes allocated beyond chunk growth (chunks grew by "
        << chunk_growth << ")";
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
