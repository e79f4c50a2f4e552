// Real pcap file format reader/writer (the classic 0xa1b2c3d4 format with
// microsecond timestamps, as written by tcpdump -w and read by createDist's
// trace input mode).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "capbench/net/packet.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::pcap {

inline constexpr std::uint32_t kPcapMagic = 0xA1B2C3D4;
inline constexpr std::uint32_t kLinktypeEthernet = 1;

struct FileHeader {
    std::uint32_t magic = kPcapMagic;
    std::uint16_t version_major = 2;
    std::uint16_t version_minor = 4;
    std::int32_t thiszone = 0;
    std::uint32_t sigfigs = 0;
    std::uint32_t snaplen = 65535;
    std::uint32_t linktype = kLinktypeEthernet;
};

struct Record {
    sim::SimTime timestamp{};
    std::uint32_t caplen = 0;
    std::uint32_t wire_len = 0;
    std::vector<std::byte> data;  // caplen bytes
};

/// Streams records into a pcap file (little-endian host-order fields, the
/// native-writer convention).
class FileWriter {
public:
    /// Writes the file header immediately.
    FileWriter(std::ostream& out, std::uint32_t snaplen = 65535);

    /// Writes one record.  Synthetic packets (no bytes) are written as
    /// zero-filled payloads of their capture length.  Allocation-free in
    /// steady state: real payloads stream straight from the packet's arena
    /// buffer, synthetic ones reuse a pooled zero buffer.
    void write(const net::Packet& packet, std::uint32_t caplen, sim::SimTime timestamp);

    /// Zero-copy path: emits a record header followed by `data`, truncated
    /// or zero-padded to exactly min(caplen, snaplen, wire_len) bytes.
    void write(std::span<const std::byte> data, std::uint32_t caplen, std::uint32_t wire_len,
               sim::SimTime timestamp);

    void write(const Record& record);

    [[nodiscard]] std::uint64_t records_written() const { return records_; }

private:
    std::ostream* out_;
    std::uint32_t snaplen_;
    std::uint64_t records_ = 0;
    std::vector<std::byte> zero_pool_;  // grown once, reused for padding
};

/// Reads records from a pcap file; handles both endiannesses.
class FileReader {
public:
    /// Parses the header.  Throws std::runtime_error on bad magic.
    explicit FileReader(std::istream& in);

    [[nodiscard]] const FileHeader& header() const { return header_; }

    /// Next record, or std::nullopt at end of file.
    /// Throws std::runtime_error on truncated records.
    std::optional<Record> next();

private:
    [[nodiscard]] std::uint32_t fix32(std::uint32_t v) const;
    [[nodiscard]] std::uint16_t fix16(std::uint16_t v) const;

    std::istream* in_;
    FileHeader header_;
    bool swapped_ = false;
};

}  // namespace capbench::pcap
