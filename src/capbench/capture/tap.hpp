// Interfaces between the driver (kernel side) and capture stacks, and
// between capture stacks and application threads (reader side), plus the
// one capture-stack base that implements both sides' bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/hostsim/arch.hpp"
#include "capbench/hostsim/machine.hpp"
#include "capbench/net/packet.hpp"

namespace capbench::obs {
class AppObserver;
}

namespace capbench::capture {

struct OsSpec;

/// Per-consumer capture statistics (the pcap_stats analog).  StackEndpoint
/// is the only writer: each capture event is counted here once.
struct CaptureStats {
    std::uint64_t kernel_seen = 0;     // packets offered to this tap
    std::uint64_t accepted = 0;        // passed the filter
    std::uint64_t dropped_filter = 0;  // rejected by the filter (aborts included)
    std::uint64_t dropped_buffer = 0;  // accepted but no buffer space (ps_drop)
    std::uint64_t delivered = 0;       // handed to the application (ps_recv)
    /// Filter runs that ended in a VM fault (out-of-bounds load, division
    /// by zero) rather than a verdict.  A subset of dropped_filter — the
    /// drop identity delivered + Σdrops == generated is unaffected.
    std::uint64_t filter_aborts = 0;
    /// Packets the fanout group routed to a different tap (queue- or
    /// cluster-mode delivery).  Zero kernel work — that is the point of
    /// fanout — but counted so the per-app drop identity stays closed.
    std::uint64_t fanout_skipped = 0;
};

/// What a capture buffer holds of a packet: the kernel's record of it
/// (Section 2.1.1: catchpacket() stores caplen and wire length, the frame
/// itself is freed).  Buffers hold records, so a buffered packet pins no
/// arena payload; `packet` is set only when the reader reads bytes.  Every
/// buffered packet costs one record, so it stays at 24 bytes.
struct CaptureRecord {
    std::uint32_t frame_len = 0;
    std::uint32_t caplen = 0;  // the tap's filter verdict, set when buffered
    net::PacketPtr packet;     // null unless the reader reads bytes

    [[nodiscard]] static CaptureRecord of(const net::PacketPtr& packet, bool keep_bytes) {
        return {packet->frame_len(), 0, keep_bytes ? packet : nullptr};
    }
};

/// The application thread reading an endpoint: woken when data arrives.
class Reader : public hostsim::Thread {
public:
    using hostsim::Thread::Thread;

    /// True when the application reads frame bytes (a pcap handler or a
    /// pcap file sink); only then do the endpoint's records keep the
    /// packet.  Asked for every packet the driver plans.
    [[nodiscard]] virtual bool reads_bytes() const = 0;
};

/// Kernel-side interface: the driver asks each tap to plan (cost) and then,
/// when the kernel work for the packet completes, to commit (buffer state
/// mutation + reader wakeup).  plan/commit are called strictly in FIFO
/// pairs per tap.
class PacketTap {
public:
    virtual ~PacketTap() = default;

    /// Runs the filter and returns the kernel work this tap adds for the
    /// packet (filter interpretation, clone/enqueue, buffer copy).
    virtual hostsim::Work plan(const net::PacketPtr& packet) = 0;

    /// True when the packet's record must keep its bytes for this tap's
    /// reader.
    [[nodiscard]] virtual bool keeps_bytes() const { return false; }

    /// Applies the planned action: enqueue/copy the packet's record into
    /// the consumer's buffer or count a drop; wakes the reader when data
    /// becomes available.  `arrival` and `handoff` are the packet's NIC
    /// arrival and kernel hand-off stamps (sim ns), read only when the tap
    /// is observed.
    virtual void commit(const CaptureRecord& record, std::int64_t arrival,
                        std::int64_t handoff) = 0;

    /// The fanout group delivered this packet to another tap: account it
    /// (CaptureStats::fanout_skipped) without planning any kernel work.
    virtual void fanout_skip() = 0;
};

/// Delivery policy of a fanout group (the taps attached to one driver).
enum class FanoutMode {
    kMirror,   // every tap sees every packet (the classic behaviour)
    kQueue,    // tap i is pinned to RSS queue i % queues
    kCluster,  // PF_RING-style: flow hash % tap count picks ONE tap
};

/// Decides which taps of a driver receive a packet, given its RSS queue
/// and flow hash.  Mirror mode (the default) reproduces the historical
/// every-tap-sees-everything delivery byte for byte.
class FanoutGroup {
public:
    FanoutGroup() = default;
    FanoutGroup(FanoutMode mode, int queues);

    [[nodiscard]] FanoutMode mode() const { return mode_; }
    [[nodiscard]] int queues() const { return queues_; }

    /// The RSS queue tap `index` is pinned to in kQueue mode.
    [[nodiscard]] int pinned_queue(std::size_t index) const {
        return static_cast<int>(index % static_cast<std::size_t>(queues_));
    }

    /// True when tap `index` (of `tap_count` attached taps) receives a
    /// packet that arrived on `queue` with flow hash `hash`.
    [[nodiscard]] bool targets(std::size_t index, std::size_t tap_count, int queue,
                               std::uint32_t hash) const;

private:
    FanoutMode mode_ = FanoutMode::kMirror;
    int queues_ = 1;
};

/// Shared filter-execution helper.  Runs the real BPF VM when packet bytes
/// are available.  Synthetic (size-only) packets are evaluated against a
/// template of the generator's default frame truncated to the packet's
/// length, so header-based filters (like the Figure 6.5 chain, which
/// matches every generated packet only after evaluating all instructions)
/// produce the right verdict and the real instruction-path cost.
class FilterRunner {
public:
    struct Verdict {
        bool accept = true;
        bool aborted = false;  // the VM faulted instead of returning a verdict
        std::uint32_t caplen = 0;
        std::uint32_t insns = 0;
    };

    /// The attach-time gate shared by all three capture stacks: runs the
    /// verifier (throwing std::invalid_argument with the structured
    /// finding on error-severity results) and, unless
    /// CAPBENCH_BPF_TIER=interpreter, takes the program's native code from
    /// the program cache (compiled once per distinct program).  An empty
    /// program clears the filter; a rejected one leaves the previous filter
    /// installed.  A build without native support runs the interpreter.
    void install(bpf::Program program);

    [[nodiscard]] bool has_filter() const { return !program_.empty(); }

    /// Instructions of the program the native code was compiled from; 0
    /// when no filter is installed or the interpreter runs.
    [[nodiscard]] std::size_t jitted_insns() const {
        return jit_ != nullptr ? program_.size() : 0;
    }

    [[nodiscard]] Verdict run(const net::Packet& packet, std::uint32_t snaplen) const {
        Verdict v;
        const std::uint32_t whole = packet.frame_len();
        if (program_.empty()) {
            v.caplen = std::min(snaplen, whole);
            return v;
        }
        const std::span<const std::byte> data =
            packet.has_bytes()
                ? packet.bytes()
                : synthetic_template().subspan(
                      0, std::min<std::size_t>(whole, synthetic_template().size()));
        const bpf::VmResult r = jit_ != nullptr ? jit_->run(data, whole)
                                                : bpf::Vm::run(program_, data, whole);
        v.accept = r.accept_len > 0;
        v.aborted = r.aborted;
        v.caplen = std::min({snaplen, whole, v.accept ? r.accept_len : 0u});
        v.insns = r.insns_executed;
        return v;
    }

private:
    /// A full-size frame with the generator's default addressing.
    static std::span<const std::byte> synthetic_template();

    bpf::Program program_;
    std::shared_ptr<const bpf::JitProgram> jit_;
};

/// FIFO verdict handoff between plan() and commit().  The driver calls the
/// two in strictly matched pairs per tap; a commit without a matching plan
/// is a protocol violation that used to read `pending_[pending_head_++]`
/// out of bounds silently in Release builds — this helper fail-fasts
/// instead.  Storage is a vector reset once drained, so the steady state
/// reuses its capacity.
class PendingVerdicts {
public:
    void push(FilterRunner::Verdict verdict) { pending_.push_back(verdict); }

    /// Pops the oldest planned verdict; throws std::logic_error when no
    /// plan is outstanding (plan/commit mismatch).
    FilterRunner::Verdict pop() {
        if (head_ >= pending_.size())
            throw std::logic_error("PendingVerdicts: commit without a matching plan");
        const FilterRunner::Verdict verdict = pending_[head_++];
        if (head_ == pending_.size()) {
            pending_.clear();
            head_ = 0;
        }
        return verdict;
    }

private:
    std::vector<FilterRunner::Verdict> pending_;
    std::size_t head_ = 0;
};

/// The one capture-stack base: kernel side (PacketTap) and reader side of
/// one capture consumer.  It owns the consumer's filter, the plan->commit
/// verdict handoff and the pcap_stats ledger, so every capture event —
/// seen, filtered, aborted, accepted, buffer drop, fanout skip, delivered
/// — is counted here exactly once.  The three stacks derive from it and
/// add only their buffer state machine (store/read) and their stack-
/// specific kernel copy and fetch costs.
class StackEndpoint : public PacketTap {
public:
    struct Batch {
        std::vector<CaptureRecord> packets;
        hostsim::Work fetch_work;  // syscall + copy cost to charge
    };

    ~StackEndpoint() override = default;
    // Attached taps and scheduled read timeouts are held by address.
    StackEndpoint(const StackEndpoint&) = delete;
    StackEndpoint& operator=(const StackEndpoint&) = delete;

    // -- PacketTap --
    hostsim::Work plan(const net::PacketPtr& packet) final;
    [[nodiscard]] bool keeps_bytes() const final {
        return reader_ != nullptr && reader_->reads_bytes();
    }
    void commit(const CaptureRecord& record, std::int64_t arrival,
                std::int64_t handoff) final;
    void fanout_skip() final { ++stats_.fanout_skipped; }

    /// Non-blocking read of up to `max_packets`.  std::nullopt means "no
    /// data yet" — the reader should block; it is woken via its thread.
    std::optional<Batch> fetch(std::size_t max_packets);

    /// Registers the application thread to wake when data arrives.
    void set_reader(Reader* reader) { reader_ = reader; }

    /// Installs a BPF filter (the attach-time gate of FilterRunner).
    void install_filter(bpf::Program program);

    [[nodiscard]] const CaptureStats& stats() const { return stats_; }

    /// Kernel-side capture-buffer fill level, in stack-native units
    /// (BPF: stored bytes across both halves, mmap: occupied frames,
    /// PF_PACKET: queued skb truesize bytes).  A gauge for the interval
    /// time-series sampler; compare against buffer_capacity().
    [[nodiscard]] virtual std::uint64_t buffer_occupancy() const = 0;
    /// The capacity `buffer_occupancy()` saturates at, in the same units.
    [[nodiscard]] virtual std::uint64_t buffer_capacity() const = 0;

    /// Hands a consumed batch's record vector back for reuse: the next
    /// fetch() builds its batch in it, capacity intact, so steady-state
    /// fetch loops allocate nothing.
    void recycle(std::vector<CaptureRecord> packets) {
        packets.clear();
        spare_packets_ = std::move(packets);
    }

    /// Installs packet-lifecycle hooks (may be null; every use is
    /// branch-guarded so untraced runs stay zero-cost).
    void set_observer(obs::AppObserver* obs) { app_obs_ = obs; }

protected:
    /// The kernel's copy of an accepted packet into the stack's buffer,
    /// planned on top of the tap's per-packet work.  PF_PACKET only clones
    /// the skb, so by default nothing is copied.
    struct KernelCopy {
        bool copies_caplen;
        std::optional<double> working_set_bytes;  // the copy's; none keeps the tap's
    };

    StackEndpoint(hostsim::Machine& machine, const OsSpec& os, std::uint32_t snaplen,
                  KernelCopy copy = {})
        : machine_(&machine), os_(&os), snaplen_(snaplen), copy_(copy) {}

    /// Buffers an accepted packet's record, its caplen set (waking the
    /// reader when the stack does); false means no buffer space — the
    /// caller counts the drop.
    virtual bool store(CaptureRecord record) = 0;

    /// Moves up to `max_packets` buffered records into `batch.packets`
    /// (handed in empty, pooled capacity) and sets fetch_work; false
    /// means no data yet.
    virtual bool read(std::size_t max_packets, Batch& batch) = 0;

    /// The buffer fill the lifecycle hooks trace at enqueue and fetch.
    [[nodiscard]] virtual std::uint64_t traced_occupancy() const { return buffer_occupancy(); }

    [[nodiscard]] Reader* reader() const { return reader_; }
    void wake_reader() {
        if (reader_ != nullptr) machine_->wake(*reader_);
    }

    hostsim::Machine* machine_;
    const OsSpec* os_;

private:
    std::uint32_t snaplen_;
    KernelCopy copy_;
    FilterRunner filter_;
    PendingVerdicts pending_;  // FIFO plan->commit handoff
    CaptureStats stats_;
    Reader* reader_ = nullptr;
    std::vector<CaptureRecord> spare_packets_;
    obs::AppObserver* app_obs_ = nullptr;
};

}  // namespace capbench::capture
