// FreeBSD BPF device model (Section 2.1.1, Figure 2.1).
//
// Per capturing application the kernel keeps a STORE/HOLD double buffer.
// The filter runs in the receive interrupt; accepted packets are copied
// into STORE.  The buffers rotate when STORE is full and HOLD is empty
// (otherwise the packet is dropped), or when the read timeout fires while
// the application waits.  A read() hands the application the complete HOLD
// buffer in one copyout — cheap per packet, but the whole-buffer copy is
// exactly what hurts single-CPU configurations with very large buffers
// (Figures 6.3(a)/6.4(a)).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "capbench/capture/os.hpp"
#include "capbench/capture/tap.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::capture {

class BsdBpfDev final : public StackEndpoint {
public:
    /// `buffer_bytes` is the size of EACH half of the double buffer.
    BsdBpfDev(hostsim::Machine& machine, const OsSpec& os, std::uint64_t buffer_bytes,
              std::uint32_t snaplen);

    [[nodiscard]] std::uint64_t buffer_occupancy() const override {
        return store_.stored_bytes + hold_.stored_bytes;
    }
    [[nodiscard]] std::uint64_t buffer_capacity() const override { return 2 * buffer_bytes_; }

    /// Arms the read timeout (the libpcap to_ms): while the application
    /// waits and HOLD is empty, a non-empty STORE rotates after `timeout`.
    void enable_read_timeout(sim::Duration timeout);

private:
    struct Buffer {
        std::vector<CaptureRecord> packets;
        std::uint64_t stored_bytes = 0;  // captured bytes incl. bpf headers
        void clear() {
            packets.clear();  // keeps capacity: rotation reallocates nothing
            stored_bytes = 0;
        }
        [[nodiscard]] bool empty() const { return packets.empty(); }
    };

    bool store(CaptureRecord record) override;
    bool read(std::size_t max_packets, Batch& batch) override;
    /// The traced fill is STORE's, the half the kernel copies into.
    [[nodiscard]] std::uint64_t traced_occupancy() const override {
        return store_.stored_bytes;
    }

    [[nodiscard]] std::uint64_t slot_bytes(std::uint32_t caplen) const;
    void rotate();
    void schedule_timeout();

    std::uint64_t buffer_bytes_;
    Buffer store_;
    Buffer hold_;
    bool hold_ready_ = false;
    sim::Duration timeout_{};
    bool timeout_armed_ = false;
};

}  // namespace capbench::capture
