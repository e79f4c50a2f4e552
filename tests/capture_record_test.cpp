// Tests for the capture record path: capture buffers hold a compact record
// of each packet, not the packet, so a payload goes back to the arena once
// every tap has filtered it.  Bytes survive only for readers that read
// them — a pcap handler or a disk writer with a pcap sink.
#include <gtest/gtest.h>

#include <sstream>

#include "capbench/bpf/insn.hpp"
#include "capbench/capture/driver.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/dist/builtin.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/testbed.hpp"
#include "capbench/load/disk.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/pcap/session.hpp"

namespace capbench {
namespace {

/// Generates `packets` frames at `rate_mbps` into a bed of `suts` after
/// `before_traffic` has run on the started bed, then drains it.
std::unique_ptr<harness::Testbed> run_bed(
    std::vector<harness::SutConfig> suts, std::uint64_t packets, double rate_mbps,
    const std::function<void(harness::Testbed&)>& before_traffic = {}) {
    harness::TestbedConfig tb;
    tb.gen.count = packets;
    tb.gen.rate_mbps = rate_mbps;
    tb.gen.full_bytes = true;
    tb.gen.size_dist.emplace(dist::mwn_trace_histogram());
    tb.gen.use_dist = true;
    tb.suts = std::move(suts);
    auto bed = std::make_unique<harness::Testbed>(std::move(tb));
    bed->start_suts();
    if (before_traffic) before_traffic(*bed);
    bool done = false;
    bed->generator().start(sim::SimTime{}, [&] { done = true; });
    while (!done) bed->sim().run(bed->sim().now() + sim::seconds(1));
    bed->sim().run(bed->sim().now() + sim::seconds(3));
    return bed;
}

TEST(CaptureRecord, FitsInTwentyFourBytes) {
    // Every buffered packet costs one record: at the thesis's 1 000 000
    // packets, with 128 MB buffers holding most of them, each byte here is
    // about a megabyte of peak memory per running point.
    EXPECT_LE(sizeof(capture::CaptureRecord), 24u);
}

TEST(CaptureRecord, BufferedPacketsDoNotPinPayloads) {
    // Fig 6.6's set-up: 128 MB buffers hold every packet, so a buffer that
    // kept the packet would pin one payload per buffered packet.  With
    // records only the NIC rings hold packets.
    auto suts = harness::standard_suts();
    harness::apply_increased_buffers(suts);
    for (auto& sut : suts) sut.filter_expression = harness::fig_6_5_filter_expression();
    const auto bed = run_bed(suts, 20'000, 0.0);

    std::uint64_t delivered = 0;
    for (const auto& sut : bed->suts()) delivered += sut->capture_stats(0).delivered;
    EXPECT_GT(delivered, 0u);
    EXPECT_LE(bed->arena().stats().payload_allocs, 4 * capture::NicModel{}.ring_slots);
}

/// A reader that never runs; it only answers reads_bytes().
struct StubReader final : capture::Reader {
    explicit StubReader(bool bytes) : Reader("stub"), bytes(bytes) {}
    void main() override {}
    [[nodiscard]] bool reads_bytes() const override { return bytes; }
    bool bytes;
};

TEST(CaptureRecord, DriverKeepsThePacketOnlyForAByteReader) {
    for (const bool bytes : {false, true}) {
        sim::Simulator sim;
        hostsim::Machine machine{
            sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 2, false}, {}};
        const auto& os = capture::OsSpec::linux_2_6_11();
        capture::Driver driver{machine, os};
        capture::LinuxPacketSocket sock{machine, os, 1 << 20, 1515};
        StubReader reader{bytes};
        sock.set_reader(&reader);
        driver.attach(sock);
        auto arena = net::PacketArena::create();
        driver.process(arena->make_full(7, 600, sim::SimTime{}));
        sim.run();

        const auto batch = sock.fetch(8);
        ASSERT_TRUE(batch.has_value());
        ASSERT_EQ(batch->packets.size(), 1u);
        const capture::CaptureRecord& rec = batch->packets.front();
        EXPECT_EQ(rec.frame_len, 600u);
        EXPECT_EQ(rec.caplen, 600u);
        EXPECT_EQ(rec.packet != nullptr, bytes);
        // Without a byte reader the payload is already back in the arena.
        const auto next = arena->make_full(8, 600, sim::SimTime{});
        EXPECT_EQ(arena->stats().payload_reuses, bytes ? 0u : 1u);
    }
}

TEST(CaptureRecord, AppTakesTheFiltersCaplen) {
    // `ret #64` keeps 64 bytes of every 600-byte frame, below the 1515-byte
    // snaplen: the handler and the app's per-packet load (here its disk
    // bytes) must see the tap's caplen, on the BPF and PF_PACKET stacks.
    constexpr std::uint64_t kPackets = 500;
    harness::TestbedConfig tb;
    tb.gen.count = kPackets;
    tb.gen.rate_mbps = 100.0;
    tb.gen.full_bytes = true;
    tb.gen.packet_size = 600 - net::kEthernetHeaderLen;
    for (const char* name : {"moorhen", "snipe"}) {
        auto sut = harness::standard_sut(name);
        sut.buffer_bytes = 10u << 20;
        sut.app_load.disk_bytes_per_packet = 200;
        tb.suts.push_back(sut);
    }
    harness::Testbed bed{std::move(tb)};
    bed.start_suts();
    std::vector<std::uint64_t> handled(2, 0);
    std::vector<std::uint64_t> wrong(2, 0);
    for (std::size_t s = 0; s < 2; ++s) {
        pcap::Session& session = *bed.suts()[s]->sessions()[0];
        session.endpoint().install_filter({bpf::stmt(bpf::BPF_RET | bpf::BPF_K, 64)});
        session.set_handler([&, s](const net::PacketPtr& p, std::uint32_t caplen) {
            ++handled[s];
            if (p->frame_len() != 600 || caplen != 64) ++wrong[s];
        });
    }
    bool done = false;
    bed.generator().start(sim::SimTime{}, [&] { done = true; });
    while (!done) bed.sim().run(bed.sim().now() + sim::seconds(1));
    bed.sim().run(bed.sim().now() + sim::seconds(3));
    for (std::size_t s = 0; s < 2; ++s) {
        SCOPED_TRACE(bed.suts()[s]->config().name);
        EXPECT_EQ(handled[s], kPackets);
        EXPECT_EQ(wrong[s], 0u);
        const load::DiskModel& disk = *bed.suts()[s]->disk();
        EXPECT_EQ(disk.bytes_written() + disk.queued(), kPackets * 64);
    }
}

TEST(CaptureRecord, HandlerReceivesTheGeneratorsFrameBytes) {
    // Two SUTs share every packet through the splitter; only moorhen's app
    // reads bytes.  The arena recycles swan's payloads under full load, so
    // a handler fed a recycled payload would see another id's pattern.
    std::vector<harness::SutConfig> suts{harness::standard_sut("moorhen"),
                                         harness::standard_sut("swan")};
    suts[0].buffer_bytes = 10u << 20;
    std::uint64_t handled = 0;
    std::uint64_t mismatches = 0;
    const auto bed = run_bed(suts, 3'000, 600.0, [&](harness::Testbed& b) {
        b.suts()[0]->sessions()[0]->set_handler([&](const net::PacketPtr& p, std::uint32_t) {
            ++handled;
            const auto frame = p->bytes();
            ASSERT_EQ(frame.size(), p->frame_len());
            const auto eth = net::EthernetHeader::decode(frame);
            const auto ip = net::Ipv4Header::decode(frame.subspan(net::kEthernetHeaderLen));
            const auto udp = net::UdpHeader::decode(
                frame.subspan(net::kEthernetHeaderLen + net::kIpv4MinHeaderLen));
            if (eth.ether_type != net::kEtherTypeIpv4 || ip.protocol != net::kIpProtoUdp ||
                ip.identification != (p->id() & 0xFFFF) ||
                udp.length != ip.total_length - net::kIpv4MinHeaderLen)
                ++mismatches;
            for (std::size_t i =
                     net::kEthernetHeaderLen + net::kIpv4MinHeaderLen + net::kUdpHeaderLen;
                 i < frame.size(); ++i)
                if (frame[i] != static_cast<std::byte>((p->id() + i) & 0xFF)) {
                    ++mismatches;
                    break;
                }
        });
    });
    EXPECT_EQ(handled, bed->suts()[0]->capture_stats(0).delivered);
    EXPECT_EQ(handled, 3'000u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(bed->arena().stats().payload_reuses, 0u);
}

TEST(CaptureRecord, DiskWriterSinkMatchesAHandlerWriter) {
    // The writer thread's sink and a handler-driven FileWriter see the
    // same records with the same stamps, so the files are byte-identical.
    auto moorhen = harness::standard_sut("moorhen");
    moorhen.buffer_bytes = 10u << 20;
    moorhen.app_load.disk_bytes_per_packet = 76;
    moorhen.disk_writer = load::DiskWriterConfig{true, 64, load::SpillPolicy::kBlock};
    std::stringstream sink_out;
    std::stringstream handler_out;
    pcap::FileWriter sink{sink_out, 96};
    pcap::FileWriter handler_writer{handler_out, 96};
    const auto bed = run_bed({moorhen}, 2'000, 300.0, [&](harness::Testbed& b) {
        harness::Sut& sut = *b.suts()[0];
        sut.disk_writer(0)->set_sink(&sink);
        sut.sessions()[0]->set_handler([&](const net::PacketPtr& p, std::uint32_t caplen) {
            handler_writer.write(*p, caplen, b.sim().now());
        });
    });
    EXPECT_EQ(sink.records_written(), 2'000u);
    EXPECT_EQ(handler_writer.records_written(), 2'000u);
    EXPECT_EQ(sink_out.str(), handler_out.str());
}

TEST(CaptureRecord, HandlerSetAfterBufferingFailsLoudly) {
    // Records buffered while nobody read bytes carry no packet; a handler
    // installed later must not be handed a null packet.
    harness::TestbedConfig tb;
    tb.gen.count = 1'000;
    tb.gen.rate_mbps = 300.0;
    tb.gen.full_bytes = true;
    auto moorhen = harness::standard_sut("moorhen");
    moorhen.buffer_bytes = 10u << 20;  // HOLD rotates on the 20 ms timeout
    tb.suts.push_back(moorhen);
    harness::Testbed bed{std::move(tb)};
    bed.start_suts();
    bed.generator().start(sim::SimTime{}, [] {});
    bed.sim().run(sim::SimTime{} + sim::milliseconds(5));
    bed.suts()[0]->sessions()[0]->set_handler([](const net::PacketPtr&, std::uint32_t) {});
    EXPECT_THROW(bed.sim().run(bed.sim().now() + sim::seconds(1)), std::logic_error);
}

}  // namespace
}  // namespace capbench
