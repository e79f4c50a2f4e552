// Tests for the Sut assembly and the capture application's load handling
// (disk back-pressure, pipe-to-gzip wiring, handler invocation, snaplen).
#include <gtest/gtest.h>

#include "capbench/dist/builtin.hpp"
#include "capbench/bpf/filter/lexer.hpp"
#include "capbench/harness/testbed.hpp"

namespace capbench::harness {
namespace {

/// Runs one SUT against `packets` generated packets and returns the bed
/// for inspection (fully drained).
std::unique_ptr<Testbed> run_bed(SutConfig sut, std::uint64_t packets, double rate,
                                 bool full_bytes = false,
                                 pcap::Session::Handler handler = {}) {
    TestbedConfig tb;
    tb.gen.count = packets;
    tb.gen.rate_mbps = rate;
    tb.gen.full_bytes = full_bytes;
    tb.gen.size_dist.emplace(dist::mwn_trace_histogram());
    tb.gen.use_dist = true;
    tb.suts.push_back(std::move(sut));
    auto bed = std::make_unique<Testbed>(std::move(tb));
    bed->start_suts();
    if (handler) bed->suts()[0]->sessions()[0]->set_handler(std::move(handler));
    bool done = false;
    bed->generator().start(sim::SimTime{}, [&] { done = true; });
    while (!done) bed->sim().run(bed->sim().now() + sim::seconds(1));
    bed->sim().run(bed->sim().now() + sim::seconds(3));
    return bed;
}

TEST(Sut, RejectsZeroApplications) {
    sim::Simulator sim;
    auto cfg = standard_sut("moorhen");
    cfg.app_count = 0;
    EXPECT_THROW(Sut(sim, cfg), std::invalid_argument);
}

TEST(Sut, FilterInstalledAtConstruction) {
    sim::Simulator sim;
    auto cfg = standard_sut("moorhen");
    cfg.filter_expression = "udp and ip";
    Sut sut{sim, cfg};
    EXPECT_EQ(sut.sessions()[0]->filter_expression(), "udp and ip");
}

TEST(Sut, BadFilterThrowsAtConstruction) {
    sim::Simulator sim;
    auto cfg = standard_sut("moorhen");
    cfg.filter_expression = "udp andand";
    EXPECT_THROW(Sut(sim, cfg), bpf::filter::FilterError);
}

TEST(CaptureAppLoads, HandlerSeesEveryDeliveredPacket) {
    std::uint64_t handled = 0;
    std::uint64_t cap_bytes = 0;
    auto cfg = standard_sut("moorhen");
    cfg.buffer_bytes = 10u << 20;
    cfg.snaplen = 100;
    auto bed = run_bed(cfg, 5'000, 200.0, false,
                       [&](const net::PacketPtr&, std::uint32_t caplen) {
                           ++handled;
                           cap_bytes += caplen;
                       });
    EXPECT_EQ(handled, 5'000u);
    // snaplen caps the per-packet capture length.
    EXPECT_LE(cap_bytes, 5'000u * 100u);
    EXPECT_GT(cap_bytes, 5'000u * 50u);  // most packets exceed 100 B wire size
}

TEST(CaptureAppLoads, SlowDiskThrottlesFullPacketCapture) {
    // Writing FULL packets cannot keep up with the link (Figure 6.13's
    // conclusion): with whole-packet writes the capture rate collapses to
    // roughly disk speed / data rate.
    auto cfg = standard_sut("swan");
    cfg.buffer_bytes = 2u << 20;  // small buffer so back-pressure bites
    cfg.app_load.disk_bytes_per_packet = 1515;  // whole packets
    auto bed = run_bed(cfg, 60'000, 900.0);
    const auto& stats = bed->suts()[0]->sessions()[0]->stats();
    // 92 MB/s disk vs ~108 MB/s offered: some loss must appear.
    EXPECT_GT(stats.ps_drop, 0u);
    // Header-only writes at the same rate are fine.
    auto light = standard_sut("swan");
    light.buffer_bytes = 128u << 20;
    light.app_load.disk_bytes_per_packet = 76;
    auto bed2 = run_bed(light, 60'000, 700.0);
    EXPECT_EQ(bed2->suts()[0]->sessions()[0]->stats().ps_drop, 0u);
}

TEST(CaptureAppLoads, PipeToGzipSpawnsConsumer) {
    auto cfg = standard_sut("moorhen");
    cfg.buffer_bytes = 10u << 20;
    cfg.app_load.pipe_to_gzip = true;
    auto bed = run_bed(cfg, 10'000, 300.0);
    auto& machine = bed->suts()[0]->machine();
    // Both the capture app and the gzip process burned user CPU.
    EXPECT_GT(machine.cpu(0).busy().ns() + machine.cpu(1).busy().ns(), 0);
    EXPECT_EQ(bed->suts()[0]->sessions()[0]->stats().ps_recv, 10'000u);
}

TEST(CaptureAppLoads, MemcpyLoadShowsUpAsUserTime) {
    auto plain = standard_sut("moorhen");
    plain.buffer_bytes = 10u << 20;
    auto loaded = plain;
    loaded.app_load.memcpy_count = 50;
    auto bed_plain = run_bed(plain, 10'000, 300.0);
    auto bed_loaded = run_bed(loaded, 10'000, 300.0);
    const auto user = [](Testbed& bed) {
        auto& m = bed.suts()[0]->machine();
        return m.cpu(0).in_state(hostsim::CpuState::kUser) +
               m.cpu(1).in_state(hostsim::CpuState::kUser);
    };
    EXPECT_GT(user(*bed_loaded).ns(), 3 * user(*bed_plain).ns());
}

TEST(CaptureAppLoads, RealBytesSurviveToHandler) {
    bool checked = false;
    auto cfg = standard_sut("moorhen");
    auto bed = run_bed(cfg, 500, 100.0, /*full_bytes=*/true,
                       [&](const net::PacketPtr& p, std::uint32_t) {
                           if (checked) return;
                           checked = true;
                           ASSERT_TRUE(p->has_bytes());
                           const auto eth = net::EthernetHeader::decode(p->bytes());
                           EXPECT_EQ(eth.ether_type, net::kEtherTypeIpv4);
                       });
    EXPECT_TRUE(checked);
}

TEST(Sut, MultipleAppsGetIndependentSessions) {
    sim::Simulator sim;
    auto cfg = standard_sut("flamingo");
    cfg.app_count = 3;
    Sut sut{sim, cfg};
    EXPECT_EQ(sut.sessions().size(), 3u);
    EXPECT_EQ(sut.capture_stats(0).delivered, 0u);
    EXPECT_EQ(sut.capture_stats(2).delivered, 0u);
}

}  // namespace
}  // namespace capbench::harness
