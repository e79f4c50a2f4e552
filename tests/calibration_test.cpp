// Calibration: the qualitative Chapter 6 results the cost model must
// reproduce (the shape targets listed in DESIGN.md's "Qualitative
// shapes").  These run the real measurement cycle at a
// reduced packet count, so the asserted bounds are deliberately loose —
// they pin the *ordering* and *knee positions*, not absolute numbers.
#include <gtest/gtest.h>

#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"

namespace capbench::harness {
namespace {

constexpr std::uint64_t kPackets = 120'000;

RunConfig at_rate(double rate) {
    RunConfig cfg;
    cfg.packets = kPackets;
    cfg.rate_mbps = rate;
    return cfg;
}

const SutRunResult& sut(const RunResult& r, const std::string& name) {
    for (const auto& s : r.suts) {
        if (s.name == name) return s;
    }
    throw std::logic_error("no such sut in result: " + name);
}

std::vector<SutConfig> big_buffer_suts(bool single_cpu = false) {
    auto suts = standard_suts();
    apply_increased_buffers(suts);
    if (single_cpu) apply_single_cpu(suts);
    return suts;
}

// Section 7.1: "moorhen, the FreeBSD 5.4/AMD Opteron combination, is
// performing best, loosing nearly no packets in single processor mode and
// no packet at all in dual processor mode."
TEST(Calibration, MoorhenIsBestAtMaximumRate) {
    const auto dual = run_once(big_buffer_suts(), at_rate(0.0));
    EXPECT_GT(sut(dual, "moorhen").capture_avg_pct, 99.0);
    for (const auto& s : dual.suts)
        EXPECT_GE(sut(dual, "moorhen").capture_avg_pct + 0.5, s.capture_avg_pct) << s.name;

    const auto single = run_once(big_buffer_suts(true), at_rate(0.0));
    EXPECT_GT(sut(single, "moorhen").capture_avg_pct, 95.0);
    for (const auto& s : single.suts)
        EXPECT_GE(sut(single, "moorhen").capture_avg_pct + 0.5, s.capture_avg_pct) << s.name;
}

// Fig 6.2 -> 6.3: with default buffers the Linux systems start dropping in
// the low hundreds of Mbit/s; 128 MB buffers move the knee to ~650 Mbit/s.
TEST(Calibration, LinuxBufferKneeMoves) {
    auto defaults = standard_suts();
    const auto low = run_once(defaults, at_rate(150.0));
    EXPECT_GT(sut(low, "swan").capture_avg_pct, 97.0);
    const auto mid = run_once(defaults, at_rate(400.0));
    EXPECT_LT(sut(mid, "swan").capture_avg_pct, 95.0);  // default buffers drop here

    // Increased buffers: lossless at 400 (dual and single CPU)...
    const auto big = run_once(big_buffer_suts(), at_rate(400.0));
    EXPECT_GT(sut(big, "swan").capture_avg_pct, 99.5);
    const auto big_single_550 = run_once(big_buffer_suts(true), at_rate(550.0));
    EXPECT_GT(sut(big_single_550, "swan").capture_avg_pct, 97.0);
    // ...but past the ~650 Mbit/s knee a single CPU cannot keep up.
    const auto big_single_800 = run_once(big_buffer_suts(true), at_rate(800.0));
    EXPECT_LT(sut(big_single_800, "swan").capture_avg_pct, 90.0);
}

// Fig 6.3(a)/6.4(a): flamingo cannot handle the highest rates at all in
// single-processor mode — its capture rate collapses towards the buffered
// fraction, while dual-processor mode keeps a healthy rate.
TEST(Calibration, FlamingoSingleCpuCollapsesAtMaxRate) {
    const auto single = run_once(big_buffer_suts(true), at_rate(0.0));
    EXPECT_LT(sut(single, "flamingo").capture_avg_pct, 40.0);
    const auto dual = run_once(big_buffer_suts(), at_rate(0.0));
    EXPECT_GT(sut(dual, "flamingo").capture_avg_pct, 60.0);
    EXPECT_GT(sut(dual, "flamingo").capture_avg_pct,
              sut(single, "flamingo").capture_avg_pct + 20.0);
}

// Fig 6.6: the 50-instruction filter is nearly free.
TEST(Calibration, FilterCostIsSmall) {
    auto with_filter = big_buffer_suts();
    for (auto& s : with_filter) s.filter_expression = fig_6_5_filter_expression();
    RunConfig cfg = at_rate(500.0);
    cfg.full_bytes = true;
    const auto filtered = run_once(with_filter, cfg);
    const auto plain = run_once(big_buffer_suts(), at_rate(500.0));
    for (const auto& s : filtered.suts) {
        EXPECT_GT(s.capture_avg_pct + 10.0, sut(plain, s.name).capture_avg_pct) << s.name;
    }
}

// Figs 6.7-6.9: multiple applications.  FreeBSD shares evenly and degrades
// gracefully; Linux collapses past its threshold and shares unevenly.
TEST(Calibration, MultiAppFreeBsdGracefulLinuxCollapses) {
    auto suts = big_buffer_suts();
    for (auto& s : suts) s.app_count = 8;
    const auto r = run_once(suts, at_rate(800.0));

    // FreeBSD: even sharing, relevant fraction delivered.
    const auto& moorhen = sut(r, "moorhen");
    EXPECT_GT(moorhen.capture_avg_pct, 30.0);
    EXPECT_LT(moorhen.capture_best_pct - moorhen.capture_worst_pct, 25.0);

    // Linux: worse than FreeBSD under many-application overload.
    EXPECT_LT(sut(r, "swan").capture_avg_pct, moorhen.capture_avg_pct);
    EXPECT_LT(sut(r, "snipe").capture_avg_pct, 40.0);
}

TEST(Calibration, TwoAppsStillAcceptable) {
    auto suts = big_buffer_suts();
    for (auto& s : suts) s.app_count = 2;
    const auto r = run_once(suts, at_rate(500.0));
    for (const auto& s : r.suts) EXPECT_GT(s.capture_avg_pct, 85.0) << s.name;
}

// Fig 6.10: with 50 extra copies per packet the Opterons win in
// single-processor mode (memory-bound load).
TEST(Calibration, MemcpyLoadFavoursOpteronSingleCpu) {
    auto suts = big_buffer_suts(true);
    for (auto& s : suts) s.app_load.memcpy_count = 50;
    const auto r = run_once(suts, at_rate(700.0));
    EXPECT_GT(sut(r, "swan").capture_avg_pct, sut(r, "snipe").capture_avg_pct + 5.0);
    EXPECT_GT(sut(r, "moorhen").capture_avg_pct, sut(r, "flamingo").capture_avg_pct + 5.0);
}

// Fig 6.11: compression is cycle-bound — the one experiment where each
// Intel system beats (or at least matches) the corresponding AMD system in
// single-processor mode, where the CPU does all the work.
TEST(Calibration, CompressionFavoursIntelSingleCpu) {
    auto suts = big_buffer_suts(true);
    for (auto& s : suts) s.app_load.compress_level = 3;
    const auto r = run_once(suts, at_rate(450.0));
    EXPECT_GE(sut(r, "snipe").capture_avg_pct + 1.0, sut(r, "swan").capture_avg_pct);
    EXPECT_GE(sut(r, "snipe").cpu_pct, 1.0);
    // And level 9 overloads everyone (Fig B.3).
    auto heavy = big_buffer_suts(true);
    for (auto& s : heavy) s.app_load.compress_level = 9;
    const auto r9 = run_once(heavy, at_rate(450.0));
    for (const auto& s : r9.suts) EXPECT_LT(s.capture_avg_pct, 60.0) << s.name;
}

// Fig 6.14: writing 76-byte headers to disk is cheap.
TEST(Calibration, HeaderTraceToDiskIsCheap) {
    auto suts = big_buffer_suts();
    for (auto& s : suts) s.app_load.disk_bytes_per_packet = 76;
    const auto with_disk = run_once(suts, at_rate(600.0));
    const auto without = run_once(big_buffer_suts(), at_rate(600.0));
    for (const auto& s : with_disk.suts)
        EXPECT_GT(s.capture_avg_pct + 12.0, sut(without, s.name).capture_avg_pct) << s.name;
}

// Fig 6.15: the mmap libpcap removes the Linux single-CPU knee.
TEST(Calibration, MmapPcapRemovesLinuxDrops) {
    auto stock = standard_sut("swan");
    stock.buffer_bytes = 128ull << 20;
    stock.cores = 1;
    auto mmap = stock;
    mmap.name = "swan-mmap";
    mmap.stack = StackKind::kMmap;
    const auto r = run_once({stock, mmap}, at_rate(800.0));
    EXPECT_LT(sut(r, "swan").capture_avg_pct, 90.0);
    EXPECT_GT(sut(r, "swan-mmap").capture_avg_pct, 97.0);
}

// Fig 6.16: Hyperthreading changes nothing measurable.
TEST(Calibration, HyperthreadingIsNeutral) {
    auto off = standard_sut("flamingo");
    off.buffer_bytes = 10ull << 20;
    auto on = off;
    on.name = "flamingo-HT";
    on.hyperthreading = true;
    const auto r = run_once({off, on}, at_rate(800.0));
    EXPECT_NEAR(sut(r, "flamingo").capture_avg_pct, sut(r, "flamingo-HT").capture_avg_pct,
                5.0);
}

// Fig B.1: FreeBSD 5.4 beats 5.2.1.
TEST(Calibration, FreeBsd54BeatsOlderVersion) {
    auto v54 = standard_sut("flamingo");
    v54.buffer_bytes = 10ull << 20;
    auto v521 = v54;
    v521.name = "flamingo-5.2.1";
    v521.os = &capture::OsSpec::freebsd_5_2_1();
    const auto r = run_once({v54, v521}, at_rate(700.0));
    EXPECT_GT(sut(r, "flamingo").capture_avg_pct,
              sut(r, "flamingo-5.2.1").capture_avg_pct + 5.0);
}

}  // namespace
}  // namespace capbench::harness
