// Toeplitz RSS hash against the canonical Microsoft RSS verification
// suite test vectors (IPv4, 2-tuple and 4-tuple), plus indirection-table
// semantics.  A NIC whose hash disagrees with these vectors steers flows
// to different queues than real RSS hardware would.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "capbench/capture/rss.hpp"
#include "capbench/net/packet.hpp"

namespace capbench::capture::rss {
namespace {

constexpr std::uint32_t ip(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) {
    return (a << 24) | (b << 16) | (c << 8) | d;
}

struct Vector {
    std::uint32_t dst_ip;
    std::uint32_t src_ip;
    std::uint16_t dst_port;
    std::uint16_t src_port;
    std::uint32_t hash_2tuple;  // IPv4 only
    std::uint32_t hash_4tuple;  // IPv4 + TCP ports
};

// The five IPv4 rows of the Microsoft RSS hash verification table
// (destination listed first, as in the spec).
constexpr Vector kVectors[] = {
    {ip(161, 142, 100, 80), ip(66, 9, 149, 187), 1766, 2794, 0x323e8fc2, 0x51ccc178},
    {ip(65, 69, 140, 83), ip(199, 92, 111, 2), 4739, 14230, 0xd718262a, 0xc626b0ea},
    {ip(12, 22, 207, 184), ip(24, 19, 198, 95), 38024, 12898, 0xd2d0a5de, 0x5c2b394a},
    {ip(209, 142, 163, 6), ip(38, 27, 205, 30), 2217, 48228, 0x82989176, 0xafc7327f},
    {ip(202, 188, 127, 2), ip(153, 39, 163, 191), 1303, 44251, 0x5d1809c5, 0x10e828a2},
};

TEST(Toeplitz, MatchesMicrosoftIpv4TwoTupleVectors) {
    const Key& key = microsoft_key();
    for (const Vector& v : kVectors) {
        // Source then destination address, each big-endian.
        std::uint8_t input[8];
        for (int i = 0; i < 4; ++i) {
            input[i] = static_cast<std::uint8_t>(v.src_ip >> (24 - 8 * i));
            input[4 + i] = static_cast<std::uint8_t>(v.dst_ip >> (24 - 8 * i));
        }
        EXPECT_EQ(toeplitz(key, input, sizeof(input)), v.hash_2tuple);
    }
}

TEST(Toeplitz, MatchesMicrosoftIpv4FourTupleVectors) {
    const Key& key = microsoft_key();
    for (const Vector& v : kVectors)
        EXPECT_EQ(hash_ipv4_ports(key, v.src_ip, v.dst_ip, v.src_port, v.dst_port),
                  v.hash_4tuple);
}

TEST(Toeplitz, FlowHashUsesThePacketsStampedTuple) {
    const Vector& v = kVectors[0];
    net::Packet packet{0, 1500, sim::SimTime{}};
    packet.set_flow(net::FlowTuple{v.src_ip, v.dst_ip, v.src_port, v.dst_port});
    EXPECT_EQ(flow_hash(packet), v.hash_4tuple);
}

TEST(Toeplitz, TableHashMatchesBitSerialReference) {
    // The published vectors through the table-driven flow_hash...
    net::Packet packet{0, 64, sim::SimTime{}};
    for (const Vector& v : kVectors) {
        packet.set_flow(net::FlowTuple{v.src_ip, v.dst_ip, v.src_port, v.dst_port});
        EXPECT_EQ(flow_hash(packet), v.hash_4tuple);
    }
    // ...and random tuples against the bit-serial hash, with every byte
    // value appearing at every input position many times over.
    const Key& key = microsoft_key();
    std::mt19937_64 rng{0x6d5a56da};
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t a = rng();
        const std::uint64_t b = rng();
        const net::FlowTuple f{static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(a >> 32),
                               static_cast<std::uint16_t>(b), static_cast<std::uint16_t>(b >> 16)};
        packet.set_flow(f);
        ASSERT_EQ(flow_hash(packet),
                  hash_ipv4_ports(key, f.src_ip, f.dst_ip, f.src_port, f.dst_port))
            << "tuple " << f.src_ip << " " << f.dst_ip << " " << f.src_port << " "
            << f.dst_port;
    }
    // The all-zero and all-ones tuples.
    packet.set_flow(net::FlowTuple{0, 0, 0, 0});
    EXPECT_EQ(flow_hash(packet), 0u);
    packet.set_flow(net::FlowTuple{~0u, ~0u, 0xffff, 0xffff});
    EXPECT_EQ(flow_hash(packet), hash_ipv4_ports(key, ~0u, ~0u, 0xffff, 0xffff));
}

TEST(Toeplitz, HashDependsOnEveryTupleField) {
    const Key& key = microsoft_key();
    const std::uint32_t base = hash_ipv4_ports(key, 1, 2, 3, 4);
    EXPECT_NE(hash_ipv4_ports(key, 9, 2, 3, 4), base);
    EXPECT_NE(hash_ipv4_ports(key, 1, 9, 3, 4), base);
    EXPECT_NE(hash_ipv4_ports(key, 1, 2, 9, 4), base);
    EXPECT_NE(hash_ipv4_ports(key, 1, 2, 3, 9), base);
}

TEST(IndirectionTable, UniformSpreadsEntriesRoundRobin) {
    const auto table = IndirectionTable::uniform(4);
    EXPECT_EQ(table.max_queue(), 3);
    int counts[4] = {0, 0, 0, 0};
    for (std::uint32_t h = 0; h < IndirectionTable::kEntries; ++h)
        ++counts[table.queue_for(h)];
    for (const int c : counts) EXPECT_EQ(c, 32);  // 128 / 4
}

TEST(IndirectionTable, QueueForMasksTheHash) {
    const auto table = IndirectionTable::uniform(4);
    for (std::uint32_t h = 0; h < IndirectionTable::kEntries; ++h)
        EXPECT_EQ(table.queue_for(h + 5u * IndirectionTable::kEntries), table.queue_for(h));
}

TEST(IndirectionTable, SingleQueueMapsEverythingToZero) {
    const auto table = IndirectionTable::uniform(1);
    EXPECT_EQ(table.max_queue(), 0);
    EXPECT_EQ(table.queue_for(0xdeadbeef), 0);
}

TEST(IndirectionTable, SkewedAimsTheHotFractionAtTheHotQueue) {
    const auto table = IndirectionTable::skewed(4, 0, 0.75);
    int hot = 0;
    for (const auto entry : table.entries())
        if (entry == 0) ++hot;
    // 75% of 128 = 96 entries forced to queue 0; of the remaining 32
    // round-robin entries (96..127), every 4th is queue 0 too: 8 more.
    EXPECT_EQ(hot, 96 + 8);
}

TEST(IndirectionTable, RejectsInvalidShapes) {
    EXPECT_THROW(IndirectionTable::uniform(0), std::invalid_argument);
    EXPECT_THROW(IndirectionTable::uniform(129), std::invalid_argument);
    EXPECT_THROW(IndirectionTable::skewed(4, 4, 0.5), std::invalid_argument);
    EXPECT_THROW(IndirectionTable::skewed(4, -1, 0.5), std::invalid_argument);
    EXPECT_THROW(IndirectionTable::skewed(4, 0, 1.5), std::invalid_argument);
    EXPECT_THROW(IndirectionTable::skewed(4, 0, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace capbench::capture::rss
