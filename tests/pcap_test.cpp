// Tests for the pcap session API and the pcap file format.
#include <gtest/gtest.h>

#include <sstream>

#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/net/arena.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/bpf/filter/lexer.hpp"
#include "capbench/pcap/session.hpp"

namespace capbench::pcap {
namespace {

using capture::LinuxPacketSocket;
using capture::MmapRing;
using capture::OsSpec;
using hostsim::ArchSpec;
using hostsim::Machine;
using hostsim::MachineSpec;

struct Fixture {
    sim::Simulator sim;
    Machine machine{sim, MachineSpec{ArchSpec::amd_opteron(), 2, false}, {}};
    LinuxPacketSocket sock{machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
};

TEST(Session, InstallsCompiledFilter) {
    Fixture f;
    Session session{f.sock, "swan:if0", 1515, false};
    session.set_filter("udp and port 9");
    EXPECT_EQ(session.filter_expression(), "udp and port 9");
    // The filter is active: a synthetic packet without bytes passes (cost
    // model assumption), a non-matching real frame is rejected.
    std::vector<std::byte> tcp_frame(64);
    tcp_frame[12] = std::byte{0x08};
    tcp_frame[13] = std::byte{0x00};
    tcp_frame[14] = std::byte{0x45};
    tcp_frame[23] = std::byte{6};  // TCP
    auto pkt = std::make_shared<net::Packet>(1, std::move(tcp_frame), sim::SimTime{});
    f.sock.plan(pkt);
    f.sock.commit(capture::CaptureRecord::of(pkt, false), 0, 0);
    EXPECT_EQ(session.stats().ps_recv, 0u);
    EXPECT_EQ(f.sock.stats().dropped_filter, 1u);
}

TEST(Session, BadFilterThrows) {
    Fixture f;
    Session session{f.sock, "swan:if0", 1515, false};
    session.set_filter("udp");
    EXPECT_THROW(session.set_filter("ip and and"), bpf::filter::FilterError);
    // The rejected expression changes nothing: udp is still installed and
    // still reported.
    EXPECT_EQ(session.filter_expression(), "udp");
    std::vector<std::byte> tcp_frame(64);
    tcp_frame[12] = std::byte{0x08};
    tcp_frame[13] = std::byte{0x00};
    tcp_frame[14] = std::byte{0x45};
    tcp_frame[23] = std::byte{6};  // TCP
    auto pkt = std::make_shared<net::Packet>(1, std::move(tcp_frame), sim::SimTime{});
    f.sock.plan(pkt);
    f.sock.commit(capture::CaptureRecord::of(pkt, false), 0, 0);
    EXPECT_EQ(session.stats().ps_recv, 0u);
    EXPECT_EQ(f.sock.stats().dropped_filter, 1u);
}

TEST(Session, NonblockRejectedOnMmap) {
    Fixture f;
    MmapRing ring{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    Session mmap_session{ring, "swan:if0", 1515, true};
    EXPECT_THROW(mmap_session.set_nonblock(true), std::runtime_error);
    Session plain{f.sock, "swan:if0", 1515, false};
    EXPECT_NO_THROW(plain.set_nonblock(true));
    EXPECT_TRUE(plain.nonblock());
}

TEST(Session, StatsMapToPcapSemantics) {
    Fixture f;
    Session session{f.sock, "swan:if0", 1515, false};
    auto pkt = std::make_shared<net::Packet>(1, 500, sim::SimTime{});
    f.sock.plan(pkt);
    f.sock.commit(capture::CaptureRecord::of(pkt, false), 0, 0);
    f.sock.fetch(99);
    EXPECT_EQ(session.stats().ps_recv, 1u);
    EXPECT_EQ(session.stats().ps_drop, 0u);
}

TEST(Session, StatsMapBufferDropsToPsDrop) {
    // ps_drop is pcap's "dropped because there was no room" counter — it
    // must mirror the endpoint's buffer-full drops, not any other bucket.
    sim::Simulator sim;
    Machine machine{sim, MachineSpec{ArchSpec::amd_opteron(), 2, false}, {}};
    LinuxPacketSocket small{machine, OsSpec::linux_2_6_11(), 4096, 1515};
    Session session{small, "swan:if0", 1515, false};
    std::uint64_t id = 1;
    // Overfill the 4 kB socket buffer with 1500-byte frames.
    for (int i = 0; i < 10; ++i) {
        auto pkt = std::make_shared<net::Packet>(id++, 1500, sim::SimTime{});
        small.plan(pkt);
        small.commit(capture::CaptureRecord::of(pkt, false), 0, 0);
    }
    EXPECT_GT(small.stats().dropped_buffer, 0u);
    EXPECT_EQ(session.stats().ps_drop, small.stats().dropped_buffer);
    EXPECT_EQ(session.stats().ps_recv, small.stats().delivered);
}

TEST(File, ArenaBackedRoundTrip) {
    // The zero-copy span path: arena-owned payloads stream straight from
    // the packet buffer into the file and read back byte-identical.
    auto arena = net::PacketArena::create();
    auto full = arena->make_full(1, 128, sim::SimTime{});
    auto bytes = full->mutable_bytes();
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::byte>(255 - i % 256);
    const net::PacketPtr pkt = full;
    auto synthetic = arena->make_synthetic(2, 900, sim::SimTime{});
    const net::PacketPtr synth = synthetic;

    std::stringstream buffer;
    FileWriter writer{buffer, 1515};
    writer.write(*pkt, 128, sim::SimTime{sim::seconds(1).ns()});
    writer.write(*synth, 900, sim::SimTime{sim::seconds(2).ns()});
    EXPECT_EQ(writer.records_written(), 2u);

    FileReader reader{buffer};
    const auto r1 = reader.next();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->caplen, 128u);
    ASSERT_EQ(r1->data.size(), 128u);
    for (std::size_t i = 0; i < r1->data.size(); ++i)
        EXPECT_EQ(r1->data[i], pkt->bytes()[i]) << "byte " << i;
    const auto r2 = reader.next();
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->caplen, 900u);
    EXPECT_EQ(r2->wire_len, 900u);
    // Synthetic payloads come out zero-filled (the pooled pad buffer).
    for (const std::byte b : r2->data) ASSERT_EQ(std::to_integer<int>(b), 0);
    EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(File, ArenaBackedTruncatedRecordThrows) {
    auto arena = net::PacketArena::create();
    auto full = arena->make_full(1, 200, sim::SimTime{});
    auto bytes = full->mutable_bytes();
    for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = std::byte{0x5A};
    std::stringstream buffer;
    FileWriter writer{buffer, 65535};
    writer.write(*full, 200, sim::SimTime{});
    std::string content = buffer.str();
    content.resize(content.size() - 15);  // chop into the payload
    std::stringstream truncated{content};
    FileReader reader{truncated};
    EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(File, ReadsByteSwappedArenaPayloads) {
    // A big-endian file whose record payload matches an arena packet's
    // bytes: the reader must swap the header fields but pass the payload
    // through untouched.
    auto arena = net::PacketArena::create();
    auto full = arena->make_full(1, 6, sim::SimTime{});
    auto bytes = full->mutable_bytes();
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::byte>(0x10 + i);

    const auto be32 = [](std::uint32_t v) {
        return std::string{static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                           static_cast<char>(v >> 8), static_cast<char>(v)};
    };
    const auto be16 = [](std::uint16_t v) {
        return std::string{static_cast<char>(v >> 8), static_cast<char>(v)};
    };
    std::string data;
    data += be32(kPcapMagic);
    data += be16(2);
    data += be16(4);
    data += be32(0);  // thiszone
    data += be32(0);  // sigfigs
    data += be32(1515);
    data += be32(kLinktypeEthernet);
    data += be32(7);  // sec
    data += be32(9);  // usec
    data += be32(6);  // caplen
    data += be32(6);  // wire len
    for (const std::byte b : full->bytes()) data += static_cast<char>(std::to_integer<int>(b));
    std::stringstream buffer{data};
    FileReader reader{buffer};
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->caplen, 6u);
    ASSERT_EQ(rec->data.size(), 6u);
    for (std::size_t i = 0; i < rec->data.size(); ++i)
        EXPECT_EQ(rec->data[i], full->bytes()[i]) << "byte " << i;
}

TEST(File, WriteReadRoundTrip) {
    std::stringstream buffer;
    FileWriter writer{buffer, 1515};
    std::vector<std::byte> bytes(100);
    for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::byte>(i);
    const net::Packet pkt{7, std::move(bytes), sim::SimTime{}};
    writer.write(pkt, 100, sim::SimTime{sim::seconds(3).ns() + 5000});
    writer.write(pkt, 50, sim::SimTime{sim::seconds(4).ns()});
    EXPECT_EQ(writer.records_written(), 2u);

    FileReader reader{buffer};
    EXPECT_EQ(reader.header().snaplen, 1515u);
    EXPECT_EQ(reader.header().linktype, kLinktypeEthernet);
    const auto r1 = reader.next();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->caplen, 100u);
    EXPECT_EQ(r1->wire_len, 100u);
    EXPECT_EQ(r1->timestamp.ns() / 1000, sim::seconds(3).ns() / 1000 + 5);
    EXPECT_EQ(std::to_integer<int>(r1->data[42]), 42);
    const auto r2 = reader.next();
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->caplen, 50u);   // truncated by the explicit caplen
    EXPECT_EQ(r2->wire_len, 100u);
    EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(File, SnaplenCapsRecords) {
    std::stringstream buffer;
    FileWriter writer{buffer, 76};
    const net::Packet pkt{1, 1500, sim::SimTime{}};  // synthetic, no bytes
    writer.write(pkt, 1500, sim::SimTime{});
    FileReader reader{buffer};
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->caplen, 76u);
    EXPECT_EQ(rec->wire_len, 1500u);
    // Synthetic packets produce zero-filled data.
    EXPECT_EQ(std::to_integer<int>(rec->data[10]), 0);
}

TEST(File, RecordOverloadClampsToSnaplenAndWireLength) {
    // A record claiming more bytes than the file's snaplen or than the
    // frame had on the wire is written at the smaller of the three, like
    // the Packet overload.
    std::vector<std::byte> data(200);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
    const Record oversized{sim::SimTime{}, 200, 150, data};
    for (const auto& [snaplen, want] : {std::pair{96u, 96u}, std::pair{1515u, 150u}}) {
        std::stringstream buffer;
        FileWriter writer{buffer, snaplen};
        writer.write(oversized);
        FileReader reader{buffer};
        EXPECT_EQ(reader.header().snaplen, snaplen);
        const auto rec = reader.next();
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->caplen, want);
        EXPECT_EQ(rec->wire_len, 150u);
        EXPECT_EQ(rec->data, std::vector<std::byte>(data.begin(), data.begin() + want));
        EXPECT_FALSE(reader.next().has_value());
    }
}

TEST(File, RejectsBadMagic) {
    std::stringstream buffer;
    buffer.write("NOTPCAP!", 8);
    EXPECT_THROW(FileReader{buffer}, std::runtime_error);
}

TEST(File, RejectsTruncatedRecord) {
    std::stringstream buffer;
    FileWriter writer{buffer, 65535};
    const net::Packet pkt{1, 100, sim::SimTime{}};
    writer.write(pkt, 100, sim::SimTime{});
    std::string content = buffer.str();
    content.resize(content.size() - 10);  // chop the payload
    std::stringstream truncated{content};
    FileReader reader{truncated};
    EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(File, ReadsByteSwappedFiles) {
    // Hand-build a big-endian header + one empty record.
    const auto be32 = [](std::uint32_t v) {
        return std::string{static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                           static_cast<char>(v >> 8), static_cast<char>(v)};
    };
    const auto be16 = [](std::uint16_t v) {
        return std::string{static_cast<char>(v >> 8), static_cast<char>(v)};
    };
    std::string data;
    data += be32(kPcapMagic);
    data += be16(2);
    data += be16(4);
    data += be32(0);  // thiszone
    data += be32(0);  // sigfigs
    data += be32(96);
    data += be32(kLinktypeEthernet);
    data += be32(10);  // sec
    data += be32(20);  // usec
    data += be32(0);   // caplen
    data += be32(64);  // wire len
    std::stringstream buffer{data};
    FileReader reader{buffer};
    EXPECT_EQ(reader.header().snaplen, 96u);
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->wire_len, 64u);
    EXPECT_EQ(rec->timestamp.ns(), (10 * 1'000'000LL + 20) * 1000);
}

}  // namespace
}  // namespace capbench::pcap
