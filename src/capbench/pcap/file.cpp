#include "capbench/pcap/file.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace capbench::pcap {

namespace {

template <typename T>
void put(std::ostream& out, T value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
bool get(std::istream& in, T& value) {
    in.read(reinterpret_cast<char*>(&value), sizeof value);
    return in.gcount() == static_cast<std::streamsize>(sizeof value);
}

std::uint32_t bswap32(std::uint32_t v) {
    return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
}

std::uint16_t bswap16(std::uint16_t v) {
    return static_cast<std::uint16_t>((v >> 8) | (v << 8));
}

}  // namespace

FileWriter::FileWriter(std::ostream& out, std::uint32_t snaplen) : out_(&out), snaplen_(snaplen) {
    const FileHeader h{.snaplen = snaplen};
    put(*out_, h.magic);
    put(*out_, h.version_major);
    put(*out_, h.version_minor);
    put(*out_, h.thiszone);
    put(*out_, h.sigfigs);
    put(*out_, h.snaplen);
    put(*out_, h.linktype);
}

void FileWriter::write(const net::Packet& packet, std::uint32_t caplen, sim::SimTime timestamp) {
    write(packet.bytes(), caplen, packet.frame_len(), timestamp);
}

void FileWriter::write(std::span<const std::byte> data, std::uint32_t caplen,
                       std::uint32_t wire_len, sim::SimTime timestamp) {
    // A record never holds more than the file's snaplen or the frame had
    // on the wire.
    caplen = std::min({caplen, snaplen_, wire_len});
    const auto usec_total = timestamp.ns() / 1000;
    put(*out_, static_cast<std::uint32_t>(usec_total / 1'000'000));
    put(*out_, static_cast<std::uint32_t>(usec_total % 1'000'000));
    put(*out_, caplen);
    put(*out_, wire_len);
    const auto copied = std::min<std::size_t>(caplen, data.size());
    out_->write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(copied));
    if (copied < caplen) {
        // Synthetic or short payload: pad with zeros from a pooled buffer
        // instead of zero-filling a fresh vector per record.
        const std::size_t pad = caplen - copied;
        if (zero_pool_.size() < pad) zero_pool_.resize(pad);
        out_->write(reinterpret_cast<const char*>(zero_pool_.data()),
                    static_cast<std::streamsize>(pad));
    }
    ++records_;
}

void FileWriter::write(const Record& record) {
    write(std::span<const std::byte>{record.data}, record.caplen, record.wire_len,
          record.timestamp);
}

FileReader::FileReader(std::istream& in) : in_(&in) {
    std::uint32_t magic = 0;
    if (!get(*in_, magic)) throw std::runtime_error("pcap: truncated header");
    if (magic == kPcapMagic) {
        swapped_ = false;
    } else if (magic == 0xD4C3B2A1) {
        swapped_ = true;
    } else {
        throw std::runtime_error("pcap: bad magic number");
    }
    header_.magic = kPcapMagic;
    if (!get(*in_, header_.version_major) || !get(*in_, header_.version_minor) ||
        !get(*in_, header_.thiszone) || !get(*in_, header_.sigfigs) ||
        !get(*in_, header_.snaplen) || !get(*in_, header_.linktype))
        throw std::runtime_error("pcap: truncated header");
    header_.version_major = fix16(header_.version_major);
    header_.version_minor = fix16(header_.version_minor);
    header_.snaplen = fix32(header_.snaplen);
    header_.linktype = fix32(header_.linktype);
}

std::uint32_t FileReader::fix32(std::uint32_t v) const {
    return swapped_ ? bswap32(v) : v;
}

std::uint16_t FileReader::fix16(std::uint16_t v) const {
    return swapped_ ? bswap16(v) : v;
}

std::optional<Record> FileReader::next() {
    std::uint32_t sec = 0;
    if (!get(*in_, sec)) return std::nullopt;  // clean EOF
    std::uint32_t usec = 0;
    std::uint32_t caplen = 0;
    std::uint32_t wire_len = 0;
    if (!get(*in_, usec) || !get(*in_, caplen) || !get(*in_, wire_len))
        throw std::runtime_error("pcap: truncated record header");
    Record rec;
    sec = fix32(sec);
    usec = fix32(usec);
    rec.caplen = fix32(caplen);
    rec.wire_len = fix32(wire_len);
    if (rec.caplen > 256 * 1024) throw std::runtime_error("pcap: implausible record length");
    rec.timestamp =
        sim::SimTime{(static_cast<std::int64_t>(sec) * 1'000'000 + usec) * 1000};
    rec.data.resize(rec.caplen);
    in_->read(reinterpret_cast<char*>(rec.data.data()),
              static_cast<std::streamsize>(rec.caplen));
    if (in_->gcount() != static_cast<std::streamsize>(rec.caplen))
        throw std::runtime_error("pcap: truncated record data");
    return rec;
}

}  // namespace capbench::pcap
