// Packet arena: freelist-backed recycling of packet control blocks and
// payload buffers.
//
// The generator publishes millions of shared immutable packets per run; with
// plain make_shared every packet costs a control-block allocation (plus a
// payload allocation in full mode), all freed moments later when the last
// sniffer's driver has filtered the packet (capture buffers hold records,
// not packets, unless the application reads bytes).  So the arena holds
// about as many payloads as the NIC rings hold frames.  It turns that churn
// into two freelist pops and pushes:
//
//  * control blocks: packets are created with std::allocate_shared using a
//    NodeAlloc that recycles the single combined (control block + Packet)
//    node size through a freelist.  The allocator holds a plain pointer to
//    the arena, so building and dropping a packet touches no atomic
//    reference count.  The arena counts its live nodes instead: its owners
//    hold the shared_ptr that PacketArena::create() returns, and when the
//    last of them lets go while packets are still alive, the arena frees
//    itself with the last of those packets.
//  * payloads: full-mode packets draw a fixed 2 KiB buffer (enough for any
//    standard Ethernet frame) from a second freelist and return it from
//    ~Packet.  Oversized frames fall back to the packet-owned vector.
//
// Single-threaded by design, like everything inside one Testbed; parallel
// sweeps give each replication its own Testbed and therefore its own arena.
// A packet must be dropped on its arena's thread: the freelists and the
// live-node count are plain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "capbench/net/packet.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::net {

class PacketArena {
public:
    /// Payload buffer size.  Covers every legal Ethernet frame (1518 B
    /// without FCS, plus slack for VLAN tags / jumbo-ish test frames).
    static constexpr std::uint32_t kPayloadCapacity = 2048;

    struct Stats {
        std::uint64_t node_allocs = 0;       // fresh node allocations
        std::uint64_t node_reuses = 0;       // freelist hits
        std::uint64_t payload_allocs = 0;    // fresh payload buffers
        std::uint64_t payload_reuses = 0;    // payload freelist hits
        std::uint64_t oversize_payloads = 0; // frames > kPayloadCapacity
    };

    /// The arena's owners share the returned handle.  Dropping the last one
    /// frees the arena at once when no packet of it is alive, else with the
    /// last such packet.
    static std::shared_ptr<PacketArena> create() {
        return std::shared_ptr<PacketArena>(new PacketArena(), &PacketArena::release_owners);
    }

    PacketArena(const PacketArena&) = delete;
    PacketArena& operator=(const PacketArena&) = delete;
    ~PacketArena();

    /// Synthetic packet (sizes only): one recycled node, no payload.
    /// Returned mutable so the caller can stamp the flow identity; publish
    /// it as PacketPtr once configured.
    [[nodiscard]] std::shared_ptr<Packet> make_synthetic(std::uint64_t id,
                                                         std::uint32_t frame_len,
                                                         sim::SimTime sent_at);

    /// Full packet with `frame_len` writable, uninitialized payload bytes.
    /// Returned as a mutable pointer so the caller can encode the frame;
    /// publish it as PacketPtr once filled.
    [[nodiscard]] std::shared_ptr<Packet> make_full(std::uint64_t id, std::uint32_t frame_len,
                                                    sim::SimTime sent_at);

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    friend class Packet;
    template <typename T>
    friend class ArenaNodeAlloc;

    PacketArena() = default;

    /// The owners' handle is gone: frees the arena unless packets remain.
    static void release_owners(PacketArena* arena) noexcept;

    // ---- control-block nodes (single size, discovered at first alloc) ----
    // Each acquired node is a live packet; releasing the last one of an
    // arena without owners frees the arena.
    void* acquire_node(std::size_t bytes);
    void release_node(void* p, std::size_t bytes) noexcept;

    // ---- payload buffers -------------------------------------------------
    std::byte* acquire_payload();
    void release_payload(std::byte* p) noexcept;

    struct FreeNode {
        FreeNode* next;
    };

    std::size_t node_size_ = 0;      // combined control block + Packet size
    std::size_t live_nodes_ = 0;     // nodes acquired and not yet released
    bool owned_ = true;              // create()'s handle is still held
    FreeNode* free_nodes_ = nullptr;
    std::vector<std::byte*> free_payloads_;
    Stats stats_;
};

/// Allocator used with std::allocate_shared: funnels the combined
/// (control block + Packet) node through the arena's freelist, whose
/// live-node count keeps the arena alive for as long as any control block
/// it produced exists.
template <typename T>
class ArenaNodeAlloc {
public:
    using value_type = T;

    explicit ArenaNodeAlloc(PacketArena* arena) : arena_(arena) {}

    template <typename U>
    ArenaNodeAlloc(const ArenaNodeAlloc<U>& other) : arena_(other.arena_) {}

    T* allocate(std::size_t n) {
        if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
        return static_cast<T*>(arena_->acquire_node(sizeof(T)));
    }

    void deallocate(T* p, std::size_t n) noexcept {
        if (n != 1) {
            ::operator delete(p);
            return;
        }
        arena_->release_node(p, sizeof(T));
    }

    template <typename U>
    bool operator==(const ArenaNodeAlloc<U>& other) const {
        return arena_ == other.arena_;
    }

private:
    template <typename U>
    friend class ArenaNodeAlloc;

    PacketArena* arena_;
};

}  // namespace capbench::net
