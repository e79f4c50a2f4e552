// PacketArena unit tests: recycling behaviour, payload ownership, arena
// lifetime via the live-node count, and the oversize fallback.
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capbench/net/arena.hpp"

namespace net = capbench::net;
namespace sim = capbench::sim;

namespace {

TEST(PacketArena, SyntheticPacketsCarrySizesOnly) {
    auto arena = net::PacketArena::create();
    net::PacketPtr p = arena->make_synthetic(7, 1500, sim::SimTime{} + sim::Duration{42});
    EXPECT_EQ(p->id(), 7u);
    EXPECT_EQ(p->frame_len(), 1500u);
    EXPECT_FALSE(p->has_bytes());
    EXPECT_TRUE(p->bytes().empty());
}

TEST(PacketArena, FullPacketsExposeWritablePayload) {
    auto arena = net::PacketArena::create();
    std::shared_ptr<net::Packet> p = arena->make_full(1, 64, sim::SimTime{});
    ASSERT_TRUE(p->has_bytes());
    ASSERT_EQ(p->mutable_bytes().size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
        p->mutable_bytes()[i] = static_cast<std::byte>(i);
    net::PacketPtr published = std::move(p);
    ASSERT_EQ(published->bytes().size(), 64u);
    EXPECT_EQ(published->bytes()[63], static_cast<std::byte>(63));
}

TEST(PacketArena, NodesAndPayloadsAreRecycled) {
    auto arena = net::PacketArena::create();
    { auto p = arena->make_full(0, 1500, sim::SimTime{}); }
    EXPECT_EQ(arena->stats().node_allocs, 1u);
    EXPECT_EQ(arena->stats().payload_allocs, 1u);
    for (int i = 1; i <= 100; ++i) {
        auto p = arena->make_full(static_cast<std::uint64_t>(i), 1500, sim::SimTime{});
    }
    EXPECT_EQ(arena->stats().node_allocs, 1u) << "node freelist missed";
    EXPECT_EQ(arena->stats().payload_allocs, 1u) << "payload freelist missed";
    EXPECT_EQ(arena->stats().node_reuses, 100u);
    EXPECT_EQ(arena->stats().payload_reuses, 100u);
}

TEST(PacketArena, OversizeFramesFallBackToOwnedVector) {
    auto arena = net::PacketArena::create();
    const std::uint32_t big = net::PacketArena::kPayloadCapacity + 1;
    auto p = arena->make_full(0, big, sim::SimTime{});
    EXPECT_EQ(p->frame_len(), big);
    EXPECT_EQ(p->bytes().size(), big);
    EXPECT_EQ(arena->stats().oversize_payloads, 1u);
    EXPECT_EQ(arena->stats().payload_allocs, 0u) << "oversize must bypass the payload pool";
}

TEST(PacketArena, PacketsKeepTheArenaAlive) {
    net::PacketPtr survivor;
    const net::PacketArena* raw = nullptr;
    {
        auto arena = net::PacketArena::create();
        raw = arena.get();
        survivor = arena->make_full(0, 128, sim::SimTime{});
        // Arena handle dropped here; the packet's node is still live.
    }
    ASSERT_TRUE(survivor->has_bytes());
    EXPECT_EQ(survivor->bytes().size(), 128u);
    EXPECT_NE(raw, nullptr);
    survivor.reset();  // last reference: packet, then payload, then arena die
}

TEST(PacketArena, PacketsOutliveTheArenasLastOwner) {
    // As a generator's packets kept after its Testbed is gone: the arena
    // must free itself with the last of them, whatever their kind and the
    // order they go in (AddressSanitizer reports a leak or a use after
    // free otherwise).
    std::vector<net::PacketPtr> kept;
    std::weak_ptr<net::PacketArena> owner;
    {
        auto arena = net::PacketArena::create();
        owner = arena;
        auto second_owner = arena;  // handles are shared among owners
        for (std::uint64_t i = 0; i < 64; ++i) {
            if (i % 3 == 0) {
                kept.push_back(arena->make_synthetic(i, 60, sim::SimTime{}));
                continue;
            }
            const std::uint32_t len =
                i % 3 == 1 ? 64 : net::PacketArena::kPayloadCapacity + 1;  // oversize
            std::shared_ptr<net::Packet> p = arena->make_full(i, len, sim::SimTime{});
            for (std::byte& b : p->mutable_bytes()) b = static_cast<std::byte>(i);
            kept.push_back(std::move(p));
        }
        // Recycled nodes and payloads count as live again.
        for (std::size_t i = 0; i < kept.size(); i += 4) kept[i].reset();
        for (std::uint64_t i = 0; i < 16; ++i)
            kept.push_back(arena->make_full(100 + i, 128, sim::SimTime{}));
    }
    EXPECT_TRUE(owner.expired());  // the handle is gone, the packets are not
    for (std::size_t i = 0; i < kept.size(); ++i) {
        if (kept[i] == nullptr || !kept[i]->has_bytes()) continue;
        const auto want = static_cast<std::byte>(kept[i]->id());
        for (const std::byte b : kept[i]->bytes()) {
            if (kept[i]->id() < 100) {
                ASSERT_EQ(b, want) << "packet " << kept[i]->id();
            }
        }
    }
    // Drop from both ends toward the middle; the last one frees the arena.
    std::size_t lo = 0;
    std::size_t hi = kept.size();
    while (lo < hi) {
        kept[lo++].reset();
        if (lo < hi) kept[--hi].reset();
    }
}

TEST(PacketArena, DroppingTheLastOwnerWithNoPacketsFreesTheArena) {
    std::weak_ptr<net::PacketArena> owner;
    {
        auto arena = net::PacketArena::create();
        owner = arena;
        { auto p = arena->make_full(0, 64, sim::SimTime{}); }
        EXPECT_EQ(arena->stats().node_allocs, 1u);
    }
    EXPECT_TRUE(owner.expired());  // AddressSanitizer reports a leak otherwise
}

}  // namespace
