// libpcap-like session API (Section 2.1.3) on top of the simulated stacks.
//
// Mirrors the procedures the thesis lists: pcap_open_live() ~ constructing
// a Session via harness::Sut, pcap_setfilter()/pcap_compile() ~
// set_filter(), pcap_stats() ~ stats(), and the capture loop of
// pcap_loop() ~ set_handler() + the capture application thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "capbench/bpf/program_cache.hpp"
#include "capbench/capture/tap.hpp"

namespace capbench::pcap {

struct Stats {
    std::uint64_t ps_recv = 0;  // packets received (delivered to the app)
    std::uint64_t ps_drop = 0;  // packets dropped for lack of buffer space
};

class Session {
public:
    /// `is_mmap` marks sessions on the memory-mapped ring, which — like the
    /// original patch — does not support non-blocking mode (Section 6.3.6).
    Session(capture::StackEndpoint& endpoint, std::string device, std::uint32_t snaplen,
            bool is_mmap)
        : endpoint_(&endpoint), device_(std::move(device)), snaplen_(snaplen), is_mmap_(is_mmap) {}

    /// Compiles `expression` (pcap_compile, memoized process-wide per
    /// expression and snaplen by bpf::compiled_filter) and installs it
    /// (pcap_setfilter).  Throws bpf::filter::FilterError on bad
    /// expressions and std::invalid_argument on verifier rejection; either
    /// way the previous filter and filter_expression() stay in place.
    void set_filter(const std::string& expression) {
        endpoint_->install_filter(*bpf::compiled_filter(expression, snaplen_));
        filter_expr_ = expression;
    }

    /// pcap_setnonblock(): rejected on mmap sessions, like the patch.
    void set_nonblock(bool enable) {
        if (enable && is_mmap_)
            throw std::runtime_error(
                "non-blocking mode is not supported by the mmap-patched libpcap");
        nonblock_ = enable;
    }

    [[nodiscard]] bool nonblock() const { return nonblock_; }
    [[nodiscard]] bool is_mmap() const { return is_mmap_; }
    [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
    [[nodiscard]] const std::string& device() const { return device_; }
    [[nodiscard]] const std::string& filter_expression() const { return filter_expr_; }

    /// Per-packet callback run by the capture application thread for every
    /// delivered packet (the pcap_loop user function).  Set it before
    /// traffic: only while a handler is set do capture buffers keep the
    /// packet's bytes, and a packet buffered without them throws
    /// std::logic_error when delivered.
    using Handler = std::function<void(const net::PacketPtr&, std::uint32_t caplen)>;
    void set_handler(Handler handler) { handler_ = std::move(handler); }
    [[nodiscard]] const Handler& handler() const { return handler_; }

    [[nodiscard]] Stats stats() const {
        const auto& s = endpoint_->stats();
        return Stats{s.delivered, s.dropped_buffer};
    }

    [[nodiscard]] capture::StackEndpoint& endpoint() const { return *endpoint_; }

private:
    capture::StackEndpoint* endpoint_;
    std::string device_;
    std::uint32_t snaplen_;
    bool is_mmap_;
    bool nonblock_ = false;
    std::string filter_expr_;
    Handler handler_;
};

}  // namespace capbench::pcap
