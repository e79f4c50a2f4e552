// Tests for the enhanced Linux Kernel Packet Generator: pgset interface,
// frame synthesis, rate control and the NIC transmit models.
#include <gtest/gtest.h>

#include "capbench/dist/builtin.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/net/link.hpp"
#include "capbench/pktgen/pktgen.hpp"

namespace capbench::pktgen {
namespace {

struct Collector : net::FrameSink {
    std::vector<net::PacketPtr> packets;
    void on_frame(const net::PacketPtr& p) override { packets.push_back(p); }
};

struct Fixture {
    sim::Simulator sim;
    net::Link link{sim};
    Collector sink;
    Fixture() { link.attach(sink); }

    GenStats generate(GenConfig config, GenNicModel nic = GenNicModel::syskonnect()) {
        Generator gen{sim, link, nic, std::move(config)};
        gen.start(sim::SimTime{});
        sim.run();
        return gen.stats();
    }
};

TEST(Pktgen, MaxRateMatchesThesisMeasurements) {
    // 1500-byte packets at full speed: Syskonnect ~938, Netgear ~930,
    // Intel ~890 Mbit/s (Section 4.1.3).
    struct Case {
        GenNicModel nic;
        double expect_mbps;
    };
    for (const auto& c : {Case{GenNicModel::syskonnect(), 938.0},
                          Case{GenNicModel::netgear(), 930.0},
                          Case{GenNicModel::intel(), 890.0}}) {
        Fixture f;
        GenConfig cfg;
        cfg.count = 2'000;
        cfg.packet_size = 1500;
        const auto stats = f.generate(cfg, c.nic);
        EXPECT_NEAR(stats.achieved_mbps(), c.expect_mbps, 6.0) << c.nic.name;
    }
}

TEST(Pktgen, TargetRatePacingIsAccurate) {
    for (const double rate : {100.0, 400.0, 700.0}) {
        Fixture f;
        GenConfig cfg;
        cfg.count = 3'000;
        cfg.packet_size = 1000;
        cfg.rate_mbps = rate;
        const auto stats = f.generate(cfg);
        EXPECT_NEAR(stats.achieved_mbps(), rate, rate * 0.02);
    }
}

TEST(Pktgen, DistributionDrivesPacketSizes) {
    Fixture f;
    GenConfig cfg;
    cfg.count = 20'000;
    cfg.size_dist.emplace(dist::mwn_trace_histogram());
    cfg.use_dist = true;
    cfg.rate_mbps = 500.0;
    Generator gen{f.sim, f.link, GenNicModel::syskonnect(), std::move(cfg)};
    gen.start(sim::SimTime{});
    f.sim.run();
    ASSERT_EQ(f.sink.packets.size(), 20'000u);
    // Mean IP size should track the distribution's ~645 bytes; frame adds 14.
    double mean = 0;
    for (const auto& p : f.sink.packets) mean += p->frame_len();
    mean /= static_cast<double>(f.sink.packets.size());
    EXPECT_NEAR(mean - 14.0, 645.0, 30.0);
}

TEST(Pktgen, GenerationIsReproducibleAcrossRuns) {
    const auto sizes_for_seed = [](std::uint64_t seed) {
        Fixture f;
        GenConfig cfg;
        cfg.count = 500;
        cfg.seed = seed;
        cfg.size_dist.emplace(dist::mwn_trace_histogram());
        cfg.use_dist = true;
        Generator gen{f.sim, f.link, GenNicModel::syskonnect(), std::move(cfg)};
        gen.start(sim::SimTime{});
        f.sim.run();
        std::vector<std::uint32_t> sizes;
        for (const auto& p : f.sink.packets) sizes.push_back(p->frame_len());
        return sizes;
    };
    EXPECT_EQ(sizes_for_seed(42), sizes_for_seed(42));
    EXPECT_NE(sizes_for_seed(42), sizes_for_seed(43));
}

TEST(Pktgen, FullBytesBuildValidFrames) {
    Fixture f;
    GenConfig cfg;
    cfg.count = 10;
    cfg.packet_size = 500;
    cfg.full_bytes = true;
    f.generate(cfg);
    ASSERT_EQ(f.sink.packets.size(), 10u);
    std::set<std::string> src_macs;
    for (const auto& p : f.sink.packets) {
        ASSERT_TRUE(p->has_bytes());
        const auto eth = net::EthernetHeader::decode(p->bytes());
        EXPECT_EQ(eth.ether_type, net::kEtherTypeIpv4);
        src_macs.insert(eth.src.to_string());
        const auto ip = net::Ipv4Header::decode(p->bytes().subspan(14));
        EXPECT_EQ(ip.total_length, 500);
        EXPECT_EQ(ip.protocol, net::kIpProtoUdp);
        EXPECT_EQ(ip.src.to_string(), "192.168.10.100");
        EXPECT_EQ(ip.dst.to_string(), "192.168.10.12");
        const auto udp = net::UdpHeader::decode(p->bytes().subspan(34));
        EXPECT_EQ(udp.dst_port, 9);
    }
    // Source MAC cycles through three addresses (Section 6.3.2).
    EXPECT_EQ(src_macs.size(), 3u);
}

TEST(Pktgen, FullBytesPayloadIsTheRampAtEverySize) {
    // Byte i of a frame is (id + i) & 0xFF.  The sizes put the payload
    // below, at and past one 2048-byte copy, and past several.
    constexpr std::size_t kPayloadOffset =
        net::kEthernetHeaderLen + net::kIpv4MinHeaderLen + net::kUdpHeaderLen;
    for (const std::uint32_t size : {46u, 500u, 2090u, 2091u, 4200u, 9000u}) {
        Fixture f;
        GenConfig cfg;
        cfg.count = 3;
        cfg.packet_size = size;
        cfg.full_bytes = true;
        f.generate(cfg);
        ASSERT_EQ(f.sink.packets.size(), 3u);
        for (const auto& p : f.sink.packets) {
            const auto frame = p->bytes();
            ASSERT_EQ(frame.size(), p->frame_len());
            std::size_t wrong = 0;
            for (std::size_t i = kPayloadOffset; i < frame.size(); ++i)
                wrong += frame[i] != static_cast<std::byte>((p->id() + i) & 0xFF);
            EXPECT_EQ(wrong, 0u) << "ip size " << size << " id " << p->id();
        }
    }
}

TEST(Pktgen, TinySizesPaddedToMinimumFrame) {
    Fixture f;
    GenConfig cfg;
    cfg.count = 1;
    cfg.packet_size = 10;  // below IP+UDP header size
    f.generate(cfg);
    ASSERT_EQ(f.sink.packets.size(), 1u);
    EXPECT_EQ(f.sink.packets[0]->frame_len(), net::kMinFrameBytes);
}

TEST(Pgset, ConfigurationCommands) {
    Fixture f;
    Generator gen{f.sim, f.link, GenNicModel::syskonnect(), GenConfig{}};
    gen.apply_pgset("count 5000");
    gen.apply_pgset("pkt_size 700");
    gen.apply_pgset("delay 1000");
    gen.apply_pgset("dst 10.0.0.1");
    gen.apply_pgset("src 10.0.0.2");
    gen.apply_pgset("dst_mac 00:11:22:33:44:55");
    gen.apply_pgset("src_mac_count 5");
    gen.apply_pgset("udp_dst_port 1234");
    EXPECT_EQ(gen.config().count, 5000u);
    EXPECT_EQ(gen.config().packet_size, 700u);
    EXPECT_EQ(gen.config().delay_ns, 1000);
    EXPECT_EQ(gen.config().dst_ip.to_string(), "10.0.0.1");
    EXPECT_EQ(gen.config().src_ip.to_string(), "10.0.0.2");
    EXPECT_EQ(gen.config().dst_mac.to_string(), "00:11:22:33:44:55");
    EXPECT_EQ(gen.config().src_mac_count, 5u);
    EXPECT_EQ(gen.config().udp_dst_port, 1234);
}

TEST(Pgset, DistributionInputFlow) {
    Fixture f;
    Generator gen{f.sim, f.link, GenNicModel::syskonnect(), GenConfig{}};
    // Activating before DIST_READY must fail (Appendix A.2.2 step 3).
    EXPECT_THROW(gen.apply_pgset("flag PKTSIZE_REAL"), std::runtime_error);
    gen.apply_pgset("dist 1000 20 1500 2 1");
    EXPECT_THROW(gen.apply_pgset("flag PKTSIZE_REAL"), std::runtime_error);
    gen.apply_pgset("outl 40 179");
    gen.apply_pgset("outl 1500 500");
    gen.apply_pgset("hist 100 321");
    gen.apply_pgset("flag PKTSIZE_REAL");  // DIST_READY now
    EXPECT_TRUE(gen.config().use_dist);
    // Sampled sizes come from the configured arrays.
    for (int i = 0; i < 50; ++i) {
        const auto size = gen.draw_size();
        EXPECT_TRUE(size == 40 || size == 1500 || (size >= 100 && size < 120)) << size;
    }
}

TEST(Pgset, AcceptsPgsetWrappedLines) {
    Fixture f;
    Generator gen{f.sim, f.link, GenNicModel::syskonnect(), GenConfig{}};
    gen.apply_pgset("pgset \"count 77\"");
    EXPECT_EQ(gen.config().count, 77u);
}

TEST(Pgset, RejectsMalformed) {
    Fixture f;
    Generator gen{f.sim, f.link, GenNicModel::syskonnect(), GenConfig{}};
    EXPECT_THROW(gen.apply_pgset("bogus 1"), std::runtime_error);
    EXPECT_THROW(gen.apply_pgset("count"), std::runtime_error);
    EXPECT_THROW(gen.apply_pgset("outl 40 10"), std::runtime_error);  // before dist
    EXPECT_THROW(gen.apply_pgset("flag WHATEVER"), std::runtime_error);
    gen.apply_pgset("dist 1000 20 1500 1 0");
    gen.apply_pgset("outl 40 100");
    EXPECT_THROW(gen.apply_pgset("outl 52 100"), std::runtime_error);  // too many
}

TEST(Pktgen, DelayAddsInterPacketGap) {
    Fixture base;
    GenConfig cfg;
    cfg.count = 1'000;
    cfg.packet_size = 200;
    const auto fast = base.generate(cfg);
    Fixture slowed;
    cfg.delay_ns = 10'000;
    const auto slow = slowed.generate(cfg);
    EXPECT_GT(fast.achieved_mbps(), slow.achieved_mbps() * 2.0);
}

}  // namespace
}  // namespace capbench::pktgen
