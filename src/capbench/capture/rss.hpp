// Receive-side scaling: Toeplitz flow hashing plus the NIC indirection
// table that maps hash values onto receive queues.
//
// The hash follows the Microsoft RSS specification exactly — input bytes
// are consumed MSB first, and each set input bit XORs the top 32 bits of a
// key window that slides one bit per input bit — so the implementation can
// be validated against the published verification-suite test vectors
// (rss_test.cpp).  The per-frame `flow_hash` gets the same bits from a
// 12x256 table built at compile time from the Microsoft key: entry [i][v]
// is the XOR of the key windows that byte value v selects at input byte
// i, so a 4-tuple hashes as twelve lookups XORed together; the bit-serial
// `toeplitz` stays as the reference it is tested against.
//
// The indirection table is the 128-entry mask-and-lookup of real NICs,
// which is what makes hash-imbalance pathologies (many flows landing on
// one queue) expressible as configuration instead of code.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "capbench/net/packet.hpp"

namespace capbench::capture::rss {

/// The 40-byte RSS secret key.
using Key = std::array<std::uint8_t, 40>;

/// The key from the Microsoft RSS verification suite (and the default of
/// most NIC drivers); hashes computed with it must reproduce the published
/// test vectors.
const Key& microsoft_key();

/// Toeplitz hash over `len` input bytes, MSB-first.
std::uint32_t toeplitz(const Key& key, const std::uint8_t* data, std::size_t len);

/// IPv4 4-tuple (TCP/UDP) hash: source address, destination address,
/// source port, destination port, all serialized big-endian.
std::uint32_t hash_ipv4_ports(const Key& key, std::uint32_t src_ip, std::uint32_t dst_ip,
                              std::uint16_t src_port, std::uint16_t dst_port);

/// 4-tuple hash of a packet's synthetic flow identity under the Microsoft
/// key (pktgen stamps one on every packet; packets built without one hash
/// the all-zero tuple).  Table-driven; equal to `hash_ipv4_ports`.
std::uint32_t flow_hash(const net::Packet& packet);

/// Hash -> queue mapping: the low 7 hash bits index a 128-entry table, as
/// on real multi-queue NICs.
class IndirectionTable {
public:
    static constexpr std::size_t kEntries = 128;

    /// Round-robin table: entry i -> queue i % queues (the driver default).
    static IndirectionTable uniform(int queues);

    /// Imbalanced table: `hot_fraction` of the entries point at
    /// `hot_queue`, the rest round-robin over all queues.  Expresses the
    /// "many flows hash onto one queue" pathology.
    static IndirectionTable skewed(int queues, int hot_queue, double hot_fraction);

    [[nodiscard]] int queue_for(std::uint32_t hash) const {
        return map_[hash & (kEntries - 1)];
    }

    [[nodiscard]] const std::array<std::uint8_t, kEntries>& entries() const { return map_; }

    /// Largest queue index referenced by the table (for validation).
    [[nodiscard]] int max_queue() const;

private:
    std::array<std::uint8_t, kEntries> map_{};
};

}  // namespace capbench::capture::rss
