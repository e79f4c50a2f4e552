#include "capbench/load/disk_writer.hpp"

#include <stdexcept>
#include <utility>

#include "capbench/capture/os.hpp"
#include "capbench/obs/observer.hpp"
#include "capbench/pcap/file.hpp"

namespace capbench::load {

namespace {
/// Records the writer retires per wakeup — one write() syscall covers the
/// whole batch, mirroring the capture app's 32-packet processing chunk.
constexpr std::size_t kWriterBatch = 32;
}  // namespace

const char* to_string(SpillPolicy policy) {
    switch (policy) {
        case SpillPolicy::kBlock: return "block";
        case SpillPolicy::kDropNewest: return "drop-newest";
        case SpillPolicy::kDropOldest: return "drop-oldest";
    }
    return "?";
}

BringRing::BringRing(std::size_t slots) : slots_(slots) {
    if (slots == 0) throw std::invalid_argument("BringRing: slots must be >= 1");
}

// head_ < slots and size_ <= slots, so one compare-and-subtract wraps an
// index instead of a division by the runtime slot count.
void BringRing::push(RecordRef rec) {
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(rec);
    ++size_;
}

RecordRef BringRing::pop() {
    RecordRef rec = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
    return rec;
}

DiskWriterThread::DiskWriterThread(std::string name, const capture::OsSpec& os,
                                   DiskModel& disk, DiskWriterConfig config)
    : hostsim::Thread(std::move(name)),
      ring_(config.ring_slots),
      config_(config),
      os_(&os),
      disk_(&disk) {
    batch_.reserve(kWriterBatch);
}

bool DiskWriterThread::offer(RecordRef& rec, hostsim::Thread& producer) {
    if (ring_.full()) {
        if (config_.spill == SpillPolicy::kBlock) {
            blocked_producer_ = &producer;
            return false;
        }
        ++spilled_;
        if (config_.spill == SpillPolicy::kDropNewest) {
            rec.packet.reset();
            return true;
        }
        ring_.pop();  // kDropOldest: evict the head to make room
    }
    ring_.push(std::move(rec));
    ++enqueued_;
    if (obs_ != nullptr)
        obs_->disk_ring_occupancy(machine().sim().now(),
                                  static_cast<std::int64_t>(ring_.size()));
    if (waiting_for_ring_) machine().wake(*this);
    return true;
}

void DiskWriterThread::main() {
    drain_loop();
}

void DiskWriterThread::drain_loop() {
    if (ring_.empty()) {
        // Nothing to write: sleep until the producer pushes.  The flag
        // keeps producer-side wakes from firing while we are blocked on
        // disk back-pressure instead (that wake belongs to the DiskModel).
        waiting_for_ring_ = true;
        block([this] {
            waiting_for_ring_ = false;
            drain_loop();
        });
        return;
    }
    batch_.clear();
    std::uint64_t bytes = 0;
    while (!ring_.empty() && batch_.size() < kWriterBatch) {
        batch_.push_back(ring_.pop());
        bytes += batch_.back().disk_bytes;
    }
    if (obs_ != nullptr)
        obs_->disk_ring_occupancy(machine().sim().now(),
                                  static_cast<std::int64_t>(ring_.size()));
    if (blocked_producer_ != nullptr) {
        hostsim::Thread* producer = blocked_producer_;
        blocked_producer_ = nullptr;
        machine().wake(*producer);
    }
    // The syscall + per-byte cost the capture app no longer pays inline.
    hostsim::Work work = os_->write_syscall;
    work += disk_->write_work(bytes);
    exec(work, hostsim::CpuState::kSystem, [this, bytes] { submit(bytes); });
}

void DiskWriterThread::submit(std::uint64_t bytes) {
    if (bytes > 0 && !disk_->write(bytes, *this)) {
        // Write-back queue full: the DiskModel wakes us once the bytes
        // have been admitted.
        block([this] { flush_batch(); });
        return;
    }
    flush_batch();
}

void DiskWriterThread::flush_batch() {
    if (sink_ != nullptr) {
        for (const RecordRef& rec : batch_) {
            if (rec.packet == nullptr)
                throw std::logic_error("DiskWriterThread: sink set after the packet was buffered");
            sink_->write(*rec.packet, rec.caplen, rec.timestamp);
        }
    }
    records_written_ += batch_.size();
    for (const RecordRef& rec : batch_) bytes_written_ += rec.disk_bytes;
    batch_.clear();  // releases the arena references
    drain_loop();
}

}  // namespace capbench::load
