#include "capbench/net/arena.hpp"

namespace capbench::net {

PacketArena::~PacketArena() {
    // All packets are gone by now (the arena is destroyed only with no live
    // node), so every node and payload is back on its freelist and can be
    // returned to the system.
    while (free_nodes_ != nullptr) {
        FreeNode* next = free_nodes_->next;
        ::operator delete(static_cast<void*>(free_nodes_));
        free_nodes_ = next;
    }
    for (std::byte* p : free_payloads_) ::operator delete(static_cast<void*>(p));
}

std::shared_ptr<Packet> PacketArena::make_synthetic(std::uint64_t id, std::uint32_t frame_len,
                                                    sim::SimTime sent_at) {
    return std::allocate_shared<Packet>(ArenaNodeAlloc<Packet>(this), id,
                                        frame_len, sent_at);
}

std::shared_ptr<Packet> PacketArena::make_full(std::uint64_t id, std::uint32_t frame_len,
                                               sim::SimTime sent_at) {
    if (frame_len > kPayloadCapacity) {
        // Oversized frame: fall back to a packet-owned payload vector.
        ++stats_.oversize_payloads;
        return std::allocate_shared<Packet>(ArenaNodeAlloc<Packet>(this), id,
                                            std::vector<std::byte>(frame_len), sent_at);
    }
    std::byte* payload = acquire_payload();
    return std::allocate_shared<Packet>(ArenaNodeAlloc<Packet>(this), id,
                                        frame_len, sent_at, payload, this);
}

void PacketArena::release_owners(PacketArena* arena) noexcept {
    if (arena->live_nodes_ == 0) {
        delete arena;
        return;
    }
    arena->owned_ = false;
}

void* PacketArena::acquire_node(std::size_t bytes) {
    if (node_size_ == 0) node_size_ = bytes;
    if (bytes != node_size_ || free_nodes_ == nullptr) {
        // First allocation, growth, or (never in practice) a foreign node
        // size: take it from the system.  Foreign sizes are also released
        // back to the system in release_node.
        void* fresh = ::operator new(bytes);
        ++stats_.node_allocs;
        ++live_nodes_;
        return fresh;
    }
    FreeNode* node = free_nodes_;
    free_nodes_ = node->next;
    ++stats_.node_reuses;
    ++live_nodes_;
    return static_cast<void*>(node);
}

void PacketArena::release_node(void* p, std::size_t bytes) noexcept {
    if (bytes != node_size_ || bytes < sizeof(FreeNode)) {
        ::operator delete(p);
    } else {
        auto* node = static_cast<FreeNode*>(p);
        node->next = free_nodes_;
        free_nodes_ = node;
    }
    if (--live_nodes_ == 0 && !owned_) delete this;
}

std::byte* PacketArena::acquire_payload() {
    if (free_payloads_.empty()) {
        ++stats_.payload_allocs;
        return static_cast<std::byte*>(::operator new(kPayloadCapacity));
    }
    std::byte* p = free_payloads_.back();
    free_payloads_.pop_back();
    ++stats_.payload_reuses;
    return p;
}

void PacketArena::release_payload(std::byte* p) noexcept {
    free_payloads_.push_back(p);
}

}  // namespace capbench::net
