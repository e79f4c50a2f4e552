#include "capbench/harness/sut.hpp"

#include <algorithm>
#include <stdexcept>

#include "capbench/harness/experiment.hpp"
#include "capbench/obs/observer.hpp"

namespace capbench::harness {

SutConfig standard_sut(const std::string& name) {
    SutConfig cfg;
    cfg.name = name;
    // Env-configurable multi-queue receive: with CAPBENCH_QUEUES /
    // CAPBENCH_AFFINITY unset these are 1 and empty — the classic
    // single-ring NIC, byte-identical to the committed figure goldens.
    cfg.nic.queues = default_queues();
    cfg.nic.irq_affinity = affinity_from_env();
    if (name == "swan") {
        cfg.arch = &hostsim::ArchSpec::amd_opteron();
        cfg.os = &capture::OsSpec::linux_2_6_11();
    } else if (name == "moorhen") {
        cfg.arch = &hostsim::ArchSpec::amd_opteron();
        cfg.os = &capture::OsSpec::freebsd_5_4();
    } else if (name == "snipe") {
        cfg.arch = &hostsim::ArchSpec::intel_xeon();
        cfg.os = &capture::OsSpec::linux_2_6_11();
    } else if (name == "flamingo") {
        cfg.arch = &hostsim::ArchSpec::intel_xeon();
        cfg.os = &capture::OsSpec::freebsd_5_4();
    } else {
        throw std::invalid_argument("standard_sut: unknown sniffer " + name);
    }
    return cfg;
}

Sut::Sut(sim::Simulator& sim, SutConfig config, obs::Observer* observer)
    : config_(std::move(config)) {
    const auto& os = *config_.os;
    machine_ = std::make_unique<hostsim::Machine>(
        sim,
        hostsim::MachineSpec{*config_.arch, config_.cores, config_.hyperthreading},
        os.sched);
    driver_ = std::make_unique<capture::Driver>(
        *machine_, os,
        capture::FanoutGroup{config_.fanout, std::max(1, config_.nic.queues)});
    nic_ = std::make_unique<capture::Nic>(*machine_, os, config_.nic, *driver_);

    const std::uint64_t buffer =
        config_.buffer_bytes > 0 ? config_.buffer_bytes : os.default_buffer_bytes;
    if (config_.app_count < 1) throw std::invalid_argument("Sut: app_count must be >= 1");

    // Every endpoint exists before the observer registers the SUT, which
    // views each endpoint's statistics.
    for (int i = 0; i < config_.app_count; ++i) {
        if (config_.stack == StackKind::kMmap || config_.stack == StackKind::kZeroCopyBpf) {
            if (config_.stack == StackKind::kMmap && os.family != capture::OsFamily::kLinux)
                throw std::invalid_argument(
                    "Sut: the mmap patch exists only for Linux (use kZeroCopyBpf for the "
                    "FreeBSD extension)");
            if (config_.stack == StackKind::kZeroCopyBpf &&
                os.family != capture::OsFamily::kFreeBsd)
                throw std::invalid_argument("Sut: kZeroCopyBpf is the FreeBSD extension");
            endpoints_.push_back(std::make_unique<capture::MmapRing>(*machine_, os, buffer,
                                                                     config_.snaplen));
        } else if (os.family == capture::OsFamily::kLinux) {
            if (!skb_pool_) skb_pool_ = std::make_unique<capture::SkbPool>();
            endpoints_.push_back(std::make_unique<capture::LinuxPacketSocket>(
                *machine_, os, buffer, config_.snaplen, skb_pool_.get()));
        } else {
            auto dev = std::make_unique<capture::BsdBpfDev>(*machine_, os, buffer,
                                                            config_.snaplen);
            dev->enable_read_timeout(sim::milliseconds(20));
            endpoints_.push_back(std::move(dev));
        }
    }

    obs::SutObserver* so = nullptr;
    if (observer != nullptr) {
        std::vector<const capture::CaptureStats*> app_stats;
        for (const auto& endpoint : endpoints_) app_stats.push_back(&endpoint->stats());
        so = &observer->add_sut(config_.name, app_stats);
        machine_->set_trace(observer->trace(), so->pid());
        machine_->register_metrics(observer->registry(), config_.name);
        nic_->set_observer(so);
        nic_->register_metrics(observer->registry(), "capture." + config_.name);
    }

    const bool needs_disk = config_.app_load.disk_bytes_per_packet > 0;
    if (needs_disk) disk_ = std::make_unique<load::DiskModel>(*machine_, load::disk_spec_for(config_.name));
    if (config_.app_load.pipe_to_gzip) {
        pipe_ = std::make_unique<load::FifoPipe>(*machine_, 64 * 1024);
        gzip_ = std::make_shared<load::GzipThread>(*pipe_, config_.app_load.pipe_gzip_level);
    }

    const bool is_mmap = config_.stack != StackKind::kNative;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        capture::StackEndpoint& endpoint = *endpoints_[i];
        if (so != nullptr) endpoint.set_observer(&so->app(i));
        if (needs_disk && config_.disk_writer.enabled) {
            auto writer = std::make_shared<load::DiskWriterThread>(
                config_.name + "-diskwr" + std::to_string(i), os, *disk_,
                config_.disk_writer);
            if (so != nullptr) {
                auto& ao = so->app(i);
                ao.disk_writer_attached(writer->spilled());
                writer->set_observer(&ao);
            }
            disk_writers_.push_back(std::move(writer));
        }
        driver_->attach(endpoint);
        sessions_.push_back(std::make_unique<pcap::Session>(
            endpoint, config_.name + ":if0", config_.snaplen, is_mmap));
        if (!config_.filter_expression.empty())
            sessions_.back()->set_filter(config_.filter_expression);
    }
}

Sut::~Sut() = default;

void Sut::start() {
    // Writer threads first, so they are parked on their empty rings before
    // the first capture app can offer a record.
    for (auto& writer : disk_writers_) machine_->spawn(writer);
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        auto app = std::make_shared<CaptureApp>(
            config_.name + "-app" + std::to_string(i), *endpoints_[i], *sessions_[i],
            *config_.os, config_.app_load, disk_.get(), pipe_.get(),
            i < disk_writers_.size() ? disk_writers_[i].get() : nullptr);
        apps_.push_back(app);
        machine_->spawn(app);
    }
    if (gzip_) machine_->spawn(gzip_);
}

// ---- CaptureApp ---------------------------------------------------------------

namespace {
constexpr std::size_t kFetchBatch = 64;
constexpr std::size_t kProcessChunk = 32;
}  // namespace

CaptureApp::CaptureApp(std::string name, capture::StackEndpoint& endpoint,
                       pcap::Session& session, const capture::OsSpec& os,
                       const load::AppLoad& app_load, load::DiskModel* disk,
                       load::FifoPipe* pipe, load::DiskWriterThread* disk_writer)
    : capture::Reader(std::move(name)),
      endpoint_(&endpoint),
      session_(&session),
      os_(&os),
      app_load_(app_load),
      disk_(disk),
      pipe_(pipe),
      disk_writer_(disk_writer) {
    if (disk_writer_ != nullptr) pending_records_.reserve(kProcessChunk);
}

void CaptureApp::main() {
    endpoint_->set_reader(this);
    fetch_loop();
}

bool CaptureApp::reads_bytes() const {
    return session_->handler() || (disk_writer_ != nullptr && disk_writer_->has_sink());
}

void CaptureApp::fetch_loop() {
    auto batch = endpoint_->fetch(kFetchBatch);
    if (!batch) {
        block([this] { fetch_loop(); });
        return;
    }
    auto work = batch->fetch_work;
    exec(work, hostsim::CpuState::kSystem,
         [this, b = std::move(*batch)]() mutable { process(std::move(b), 0); });
}

void CaptureApp::process(capture::StackEndpoint::Batch batch, std::size_t index) {
    const std::size_t end = std::min(index + kProcessChunk, batch.packets.size());

    hostsim::Work work;
    std::uint64_t disk_bytes = 0;
    std::uint64_t pipe_bytes = 0;
    for (std::size_t i = index; i < end; ++i) {
        const capture::CaptureRecord& rec = batch.packets[i];
        work += load::per_packet_app_base();
        work += load::per_packet_load_work(app_load_, rec.caplen);
        if (app_load_.disk_bytes_per_packet > 0) {
            const std::uint32_t db = std::min(rec.caplen, app_load_.disk_bytes_per_packet);
            if (disk_writer_ != nullptr) {
                // Pipeline mode: stage a record (stamped at handler time,
                // like the inline write) for the bring-ring hand-off; the
                // writer thread pays the disk cost.
                pending_records_.push_back(load::RecordRef{
                    rec.packet, rec.caplen, db, machine().sim().now()});
            } else {
                disk_bytes += db;
            }
        }
        if (app_load_.pipe_to_gzip) pipe_bytes += rec.caplen;
        if (session_->handler()) {
            if (rec.packet == nullptr)
                throw std::logic_error("CaptureApp: handler set after the packet was buffered");
            session_->handler()(rec.packet, rec.caplen);
        }
    }
    if (disk_bytes > 0 && disk_ != nullptr) {
        work += os_->write_syscall;
        work += disk_->write_work(disk_bytes);
    }
    if (pipe_bytes > 0 && pipe_ != nullptr) work += os_->write_syscall;

    exec(work, hostsim::CpuState::kUser,
         [this, b = std::move(batch), end, disk_bytes, pipe_bytes]() mutable {
             if (!pending_records_.empty())
                 push_records(std::move(b), end, 0, pipe_bytes);
             else
                 after_loads(std::move(b), end, disk_bytes, pipe_bytes);
         });
}

void CaptureApp::push_records(capture::StackEndpoint::Batch batch, std::size_t end,
                              std::size_t next, std::uint64_t pipe_bytes) {
    for (; next < pending_records_.size(); ++next) {
        if (!disk_writer_->offer(pending_records_[next], *this)) {
            // Ring full under the block policy: the writer wakes us when a
            // slot frees; retry the same record.
            block([this, b = std::move(batch), end, next, pipe_bytes]() mutable {
                push_records(std::move(b), end, next, pipe_bytes);
            });
            return;
        }
    }
    pending_records_.clear();
    after_loads(std::move(batch), end, 0, pipe_bytes);
}

void CaptureApp::after_loads(capture::StackEndpoint::Batch batch, std::size_t end,
                             std::uint64_t disk_bytes, std::uint64_t pipe_bytes) {
    // Disk / pipe back-pressure: write() returning false means the bytes
    // will be accepted later and we are woken then — retry with the
    // corresponding amount cleared.
    if (disk_bytes > 0 && disk_ != nullptr && !disk_->write(disk_bytes, *this)) {
        block([this, b = std::move(batch), end, pipe_bytes]() mutable {
            after_loads(std::move(b), end, 0, pipe_bytes);
        });
        return;
    }
    if (pipe_bytes > 0 && pipe_ != nullptr && !pipe_->write(pipe_bytes, *this)) {
        block([this, b = std::move(batch), end]() mutable {
            after_loads(std::move(b), end, 0, 0);
        });
        return;
    }
    if (end < batch.packets.size()) {
        // Timeslice emulation: long batches (a full BPF HOLD buffer can be
        // tens of thousands of packets) must not monopolize a CPU while
        // other applications wait.
        if (++chunks_since_yield_ >= 8 && machine().ready_pending()) {
            chunks_since_yield_ = 0;
            yield([this, b = std::move(batch), end]() mutable {
                process(std::move(b), end);
            });
            return;
        }
        process(std::move(batch), end);
        return;
    }
    // Batch fully consumed: return its vector to the stack so the next
    // fetch() reuses the capacity instead of reallocating.
    endpoint_->recycle(std::move(batch.packets));
    if (++batches_since_yield_ >= os_->sched.yield_every_batches) {
        batches_since_yield_ = 0;
        yield([this] { fetch_loop(); });
    } else {
        fetch_loop();
    }
}

}  // namespace capbench::harness
