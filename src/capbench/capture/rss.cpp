#include "capbench/capture/rss.hpp"

#include <algorithm>
#include <stdexcept>

namespace capbench::capture::rss {

namespace {

constexpr Key kMicrosoftKey = {0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
                               0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
                               0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
                               0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

constexpr std::size_t kTupleBytes = 12;  // src ip, dst ip, src port, dst port

/// The 32 key bits starting at key bit `bit` (MSB first): what input bit
/// `bit` XORs into the hash when it is set.
constexpr std::uint32_t key_window(const Key& key, std::size_t bit) {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < 8; ++i) bytes = (bytes << 8) | key[bit / 8 + i];
    return static_cast<std::uint32_t>(bytes >> (32 - bit % 8));
}

/// table[i][v]: the hash contribution of input byte i holding value v, the
/// XOR of the key windows of v's set bits.  The hash of a 4-tuple is then
/// the XOR of one entry per input byte.
using TupleTable = std::array<std::array<std::uint32_t, 256>, kTupleBytes>;

constexpr TupleTable make_tuple_table(const Key& key) {
    TupleTable table{};
    for (std::size_t i = 0; i < kTupleBytes; ++i) {
        for (std::size_t v = 0; v < 256; ++v) {
            std::uint32_t h = 0;
            for (std::size_t bit = 0; bit < 8; ++bit)
                if ((v >> (7 - bit)) & 1u) h ^= key_window(key, i * 8 + bit);
            table[i][v] = h;
        }
    }
    return table;
}

constexpr TupleTable kMicrosoftTupleTable = make_tuple_table(kMicrosoftKey);

void put_be32(std::uint8_t* out, std::uint32_t v) {
    out[0] = static_cast<std::uint8_t>(v >> 24);
    out[1] = static_cast<std::uint8_t>(v >> 16);
    out[2] = static_cast<std::uint8_t>(v >> 8);
    out[3] = static_cast<std::uint8_t>(v);
}

void put_be16(std::uint8_t* out, std::uint16_t v) {
    out[0] = static_cast<std::uint8_t>(v >> 8);
    out[1] = static_cast<std::uint8_t>(v);
}

void put_tuple(std::uint8_t* out, std::uint32_t src_ip, std::uint32_t dst_ip,
               std::uint16_t src_port, std::uint16_t dst_port) {
    put_be32(out, src_ip);
    put_be32(out + 4, dst_ip);
    put_be16(out + 8, src_port);
    put_be16(out + 10, dst_port);
}

}  // namespace

const Key& microsoft_key() {
    return kMicrosoftKey;
}

std::uint32_t toeplitz(const Key& key, const std::uint8_t* data, std::size_t len) {
    // 64-bit sliding window over the key: the top 32 bits are the hash
    // contribution for the current input bit; shifting left one bit per
    // input bit advances the window, and each consumed input byte vacates
    // the low 8 bits for the next key byte.
    std::uint64_t window = 0;
    for (std::size_t i = 0; i < 8; ++i) window = (window << 8) | key[i];
    std::size_t next_key_byte = 8;
    std::uint32_t result = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const std::uint8_t byte = data[i];
        for (int bit = 7; bit >= 0; --bit) {
            if ((byte >> bit) & 1u) result ^= static_cast<std::uint32_t>(window >> 32);
            window <<= 1;
        }
        if (next_key_byte < key.size()) window |= key[next_key_byte++];
    }
    return result;
}

std::uint32_t hash_ipv4_ports(const Key& key, std::uint32_t src_ip, std::uint32_t dst_ip,
                              std::uint16_t src_port, std::uint16_t dst_port) {
    std::uint8_t input[kTupleBytes];
    put_tuple(input, src_ip, dst_ip, src_port, dst_port);
    return toeplitz(key, input, sizeof(input));
}

std::uint32_t flow_hash(const net::Packet& packet) {
    const net::FlowTuple& f = packet.flow();
    std::uint8_t input[kTupleBytes];
    put_tuple(input, f.src_ip, f.dst_ip, f.src_port, f.dst_port);
    std::uint32_t h = 0;
    for (std::size_t i = 0; i < kTupleBytes; ++i) h ^= kMicrosoftTupleTable[i][input[i]];
    return h;
}

IndirectionTable IndirectionTable::uniform(int queues) {
    if (queues < 1 || queues > static_cast<int>(kEntries))
        throw std::invalid_argument("IndirectionTable: queues must be in [1, 128]");
    IndirectionTable t;
    for (std::size_t i = 0; i < kEntries; ++i)
        t.map_[i] = static_cast<std::uint8_t>(i % static_cast<std::size_t>(queues));
    return t;
}

IndirectionTable IndirectionTable::skewed(int queues, int hot_queue, double hot_fraction) {
    if (hot_queue < 0 || hot_queue >= queues)
        throw std::invalid_argument("IndirectionTable: hot_queue out of range");
    if (hot_fraction < 0.0 || hot_fraction > 1.0)
        throw std::invalid_argument("IndirectionTable: hot_fraction must be in [0, 1]");
    IndirectionTable t = uniform(queues);
    const auto hot = static_cast<std::size_t>(hot_fraction * kEntries + 0.5);
    for (std::size_t i = 0; i < std::min(hot, kEntries); ++i)
        t.map_[i] = static_cast<std::uint8_t>(hot_queue);
    return t;
}

int IndirectionTable::max_queue() const {
    return *std::max_element(map_.begin(), map_.end());
}

}  // namespace capbench::capture::rss
