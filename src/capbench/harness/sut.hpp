// System under test: one sniffer machine with its OS, capture stack(s) and
// capturing application(s), assembled per the thesis's configuration matrix
// (Figure 2.4 + the influencing variables of Section 6.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/driver.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/capture/nic.hpp"
#include "capbench/hostsim/machine.hpp"
#include "capbench/load/disk.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/load/loads.hpp"
#include "capbench/pcap/session.hpp"

namespace capbench::obs {
class Observer;
}

namespace capbench::harness {

enum class StackKind {
    kNative,       // FreeBSD BPF or Linux PF_PACKET, per the OS
    kMmap,         // Linux with the mmap libpcap patch (Section 6.3.6)
    kZeroCopyBpf,  // EXTENSION: "a memory-mapped libpcap for FreeBSD"
                   // (future work, Section 7.2) -- a shared ring replacing
                   // the double buffer and the whole-buffer copyout
};

struct SutConfig {
    std::string name = "custom";
    const hostsim::ArchSpec* arch = &hostsim::ArchSpec::amd_opteron();
    const capture::OsSpec* os = &capture::OsSpec::freebsd_5_4();
    int cores = 2;               // 1 = single processor mode (no SMP)
    bool hyperthreading = false;
    StackKind stack = StackKind::kNative;
    /// Capture buffer size: BPF half-buffer (FreeBSD) or socket rmem
    /// (Linux); 0 = the OS default of Figure 6.2.
    std::uint64_t buffer_bytes = 0;
    int app_count = 1;
    std::string filter_expression;  // empty = no filter
    /// Receive NIC behaviour; NicModel::interrupt_moderation=false gives
    /// one interrupt per packet (the receive-livelock ablation).  Multi-
    /// queue RSS is configured here too (NicModel::queues et al.).
    capture::NicModel nic;
    /// How the driver spreads packets over the app taps: kMirror (every
    /// app sees everything, the classic model), kQueue (app i pinned to
    /// RSS queue i % queues) or kCluster (PF_RING-style flow fanout).
    capture::FanoutMode fanout = capture::FanoutMode::kMirror;
    load::AppLoad app_load;
    /// Capture-to-disk writer pipeline (exact-capture style): when enabled
    /// and `app_load.disk_bytes_per_packet > 0`, each app hands arena-backed
    /// records through a bring ring to a per-app writer thread instead of
    /// charging the disk write inline.  Disabled = the classic inline model,
    /// byte-identical to the committed goldens.
    load::DiskWriterConfig disk_writer;
    std::uint32_t snaplen = 1515;  // the thesis captures whole packets
};

/// The four sniffers of Figure 2.4.  Name must be one of swan, moorhen,
/// snipe, flamingo.
SutConfig standard_sut(const std::string& name);

class CaptureApp;

class Sut {
public:
    /// `observer` (may be null) registers this SUT for lifecycle tracing
    /// and metrics; hooks stay branch-guarded when absent.
    Sut(sim::Simulator& sim, SutConfig config, obs::Observer* observer = nullptr);
    ~Sut();

    Sut(const Sut&) = delete;
    Sut& operator=(const Sut&) = delete;

    /// The NIC, to attach to the optical splitter.
    [[nodiscard]] net::FrameSink& nic_sink() { return *nic_; }

    /// Spawns the capturing application threads (start.sh, Section 3.4).
    void start();

    [[nodiscard]] const SutConfig& config() const { return config_; }
    [[nodiscard]] hostsim::Machine& machine() { return *machine_; }
    [[nodiscard]] const capture::Nic& nic() const { return *nic_; }

    /// Per-application sessions (filter installation, stats).
    [[nodiscard]] const std::vector<std::unique_ptr<pcap::Session>>& sessions() const {
        return sessions_;
    }

    /// Kernel-side capture counters of application i's endpoint.
    [[nodiscard]] const capture::CaptureStats& capture_stats(std::size_t app_index) const {
        return endpoints_[app_index]->stats();
    }

    /// Application i's capture endpoint (buffer-occupancy gauges for the
    /// interval time-series sampler).
    [[nodiscard]] const capture::StackEndpoint& endpoint(std::size_t app_index) const {
        return *endpoints_[app_index];
    }

    [[nodiscard]] load::DiskModel* disk() { return disk_.get(); }

    /// App i's disk-writer thread; null when the pipeline is disabled.
    [[nodiscard]] load::DiskWriterThread* disk_writer(std::size_t app_index) {
        return app_index < disk_writers_.size() ? disk_writers_[app_index].get()
                                                : nullptr;
    }

    /// Records spilled by app i's writer ring so far (0 without a pipeline).
    [[nodiscard]] std::uint64_t disk_spilled(std::size_t app_index) const {
        return app_index < disk_writers_.size() ? disk_writers_[app_index]->spilled()
                                                : 0;
    }

private:
    SutConfig config_;
    std::unique_ptr<hostsim::Machine> machine_;
    std::unique_ptr<capture::Driver> driver_;
    std::unique_ptr<capture::Nic> nic_;
    // One endpoint per application; concrete type depends on OS/stack.
    std::vector<std::unique_ptr<capture::StackEndpoint>> endpoints_;
    std::vector<std::unique_ptr<pcap::Session>> sessions_;
    std::vector<std::shared_ptr<CaptureApp>> apps_;
    std::vector<std::shared_ptr<load::DiskWriterThread>> disk_writers_;
    std::unique_ptr<load::DiskModel> disk_;
    std::unique_ptr<load::FifoPipe> pipe_;
    std::shared_ptr<load::GzipThread> gzip_;
    std::unique_ptr<capture::SkbPool> skb_pool_;
};

/// The capturing application (createDist in capture mode, Appendix A.1):
/// fetches packets from its stack endpoint, charges per-packet analysis
/// load, and optionally writes headers to disk or pipes packets to gzip.
/// Its endpoint's CaptureStats count what it receives.
class CaptureApp final : public capture::Reader {
public:
    CaptureApp(std::string name, capture::StackEndpoint& endpoint, pcap::Session& session,
               const capture::OsSpec& os, const load::AppLoad& app_load,
               load::DiskModel* disk, load::FifoPipe* pipe,
               load::DiskWriterThread* disk_writer = nullptr);

    void main() override;

    /// A pcap handler or a disk writer with a pcap sink reads bytes.
    [[nodiscard]] bool reads_bytes() const override;

private:
    void fetch_loop();
    void process(capture::StackEndpoint::Batch batch, std::size_t index);
    void push_records(capture::StackEndpoint::Batch batch, std::size_t end,
                      std::size_t next, std::uint64_t pipe_bytes);
    void after_loads(capture::StackEndpoint::Batch batch, std::size_t end,
                     std::uint64_t disk_bytes, std::uint64_t pipe_bytes);

    capture::StackEndpoint* endpoint_;
    pcap::Session* session_;
    const capture::OsSpec* os_;
    load::AppLoad app_load_;
    load::DiskModel* disk_;
    load::FifoPipe* pipe_;
    load::DiskWriterThread* disk_writer_;
    /// Records staged during process() (stamped at handler time) and
    /// offered to the writer ring in push_records(); pooled capacity.
    std::vector<load::RecordRef> pending_records_;
    int batches_since_yield_ = 0;
    int chunks_since_yield_ = 0;
};

}  // namespace capbench::harness
