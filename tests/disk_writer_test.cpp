// Tests for the capture-to-disk writer pipeline: the bring ring, spill
// policies, the writer thread's disk accounting, byte-identity of the pcap
// output against the inline writer, and the drop identity at harness level.
#include <gtest/gtest.h>

#include <sstream>

#include "capbench/capture/os.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/net/arena.hpp"
#include "capbench/pcap/file.hpp"

namespace capbench::load {
namespace {

using hostsim::ArchSpec;
using hostsim::Machine;
using hostsim::MachineSpec;

RecordRef make_record(net::PacketArena& arena, std::uint64_t id, std::uint32_t len,
                      std::int64_t ts_ns) {
    auto pkt = arena.make_full(id, len, sim::SimTime{});
    auto bytes = pkt->mutable_bytes();
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::byte>((id + i) % 256);
    return RecordRef{pkt, len, len, sim::SimTime{ts_ns}};
}

TEST(BringRing, PushPopWrapsAround) {
    auto arena = net::PacketArena::create();
    for (const std::size_t slots : {1u, 3u, 32u}) {
        BringRing ring{slots};
        EXPECT_TRUE(ring.empty());
        EXPECT_EQ(ring.slots(), slots);
        std::uint64_t next_id = 1;
        std::uint64_t expect_pop = 1;
        // Cycle many laps of records through the ring: FIFO order must
        // survive every wraparound.
        const int laps = 2 * static_cast<int>(slots) + 3;
        for (int lap = 0; lap < laps; ++lap) {
            while (!ring.full()) ring.push(make_record(*arena, next_id++, 64, 0));
            EXPECT_EQ(ring.size(), slots);
            EXPECT_EQ(ring.pop().packet->id(), expect_pop++);  // free one slot
            ring.push(make_record(*arena, next_id++, 64, 0));
            EXPECT_TRUE(ring.full());
            // Drain to a different fill level each lap, so the indices
            // wrap from varying head positions.
            const std::size_t keep = static_cast<std::size_t>(lap) % slots;
            while (ring.size() > keep) EXPECT_EQ(ring.pop().packet->id(), expect_pop++);
        }
        while (!ring.empty()) EXPECT_EQ(ring.pop().packet->id(), expect_pop++);
        EXPECT_EQ(expect_pop, next_id);
        EXPECT_EQ(ring.size(), 0u);
    }
}

TEST(BringRing, RejectsZeroSlots) {
    EXPECT_THROW(BringRing{0}, std::invalid_argument);
}

struct Fixture {
    sim::Simulator sim;
    Machine machine{sim, MachineSpec{ArchSpec::amd_opteron(), 2, false}, {}};
    DiskModel disk{machine, DiskSpec{80.0, 1.0, 8 << 20}};
};

class Dummy : public hostsim::Thread {
public:
    Dummy() : hostsim::Thread("dummy") {}
    void main() override {}
};

TEST(SpillPolicy, DropNewestKeepsTheOldestRecords) {
    Fixture f;
    DiskWriterConfig cfg{true, 2, SpillPolicy::kDropNewest};
    // Not spawned: the ring fills without the writer draining it.
    DiskWriterThread writer{"wr", capture::OsSpec::freebsd_5_4(), f.disk, cfg};
    Dummy producer;
    auto arena = net::PacketArena::create();
    for (std::uint64_t id = 1; id <= 4; ++id) {
        RecordRef rec = make_record(*arena, id, 100, 0);
        EXPECT_TRUE(writer.offer(rec, producer));
    }
    EXPECT_EQ(writer.enqueued(), 2u);
    EXPECT_EQ(writer.spilled(), 2u);
    EXPECT_EQ(writer.ring_occupancy(), 2u);
}

TEST(SpillPolicy, DropOldestEvictsTheHead) {
    Fixture f;
    DiskWriterConfig cfg{true, 2, SpillPolicy::kDropOldest};
    DiskWriterThread writer{"wr", capture::OsSpec::freebsd_5_4(), f.disk, cfg};
    Dummy producer;
    auto arena = net::PacketArena::create();
    for (std::uint64_t id = 1; id <= 4; ++id) {
        RecordRef rec = make_record(*arena, id, 100, 0);
        EXPECT_TRUE(writer.offer(rec, producer));
    }
    // Records 1 and 2 were evicted to make room for 3 and 4.
    EXPECT_EQ(writer.spilled(), 2u);
    EXPECT_EQ(writer.enqueued(), 4u);  // every record entered the ring
    EXPECT_EQ(writer.ring_occupancy(), 2u);
}

TEST(SpillPolicy, BlockRefusesAndLeavesTheRecordIntact) {
    Fixture f;
    DiskWriterConfig cfg{true, 1, SpillPolicy::kBlock};
    DiskWriterThread writer{"wr", capture::OsSpec::freebsd_5_4(), f.disk, cfg};
    Dummy producer;
    auto arena = net::PacketArena::create();
    RecordRef first = make_record(*arena, 1, 100, 0);
    EXPECT_TRUE(writer.offer(first, producer));
    RecordRef second = make_record(*arena, 2, 100, 0);
    EXPECT_FALSE(writer.offer(second, producer));
    // The refused record must survive for the retry after wakeup.
    ASSERT_TRUE(second.packet != nullptr);
    EXPECT_EQ(second.packet->id(), 2u);
    EXPECT_EQ(writer.spilled(), 0u);
}

/// Offers a fixed record list through the ring, blocking on back-pressure
/// like CaptureApp::push_records does.
class Producer final : public hostsim::Thread {
public:
    Producer(DiskWriterThread& writer, std::vector<RecordRef> records)
        : hostsim::Thread("producer"), writer_(&writer), records_(std::move(records)) {}

    void main() override { push(0); }

    bool done = false;

private:
    void push(std::size_t i) {
        for (; i < records_.size(); ++i) {
            if (!writer_->offer(records_[i], *this)) {
                block([this, i] { push(i); });
                return;
            }
        }
        done = true;
    }

    DiskWriterThread* writer_;
    std::vector<RecordRef> records_;
};

TEST(DiskWriterThread, RingOutputIsByteIdenticalToInlineWriter) {
    // The same records written inline and through a 4-slot blocking ring
    // (which forces back-pressure and producer wakeups) must produce
    // byte-identical pcap files, in the same order.
    auto arena = net::PacketArena::create();
    std::vector<RecordRef> records;
    for (std::uint64_t id = 1; id <= 100; ++id) {
        const std::uint32_t len = 60 + static_cast<std::uint32_t>(id * 37 % 1400);
        records.push_back(make_record(*arena, id, len, static_cast<std::int64_t>(id) * 12'345));
    }
    // A couple of synthetic packets exercise the zero-pad path.
    auto synth = arena->make_synthetic(101, 300, sim::SimTime{});
    records.push_back(RecordRef{synth, 76, 76, sim::SimTime{999'000}});

    std::stringstream inline_out;
    pcap::FileWriter inline_writer{inline_out, 1515};
    for (const RecordRef& rec : records)
        inline_writer.write(*rec.packet, rec.caplen, rec.timestamp);

    Fixture f;
    std::stringstream ring_out;
    pcap::FileWriter ring_writer{ring_out, 1515};
    DiskWriterConfig cfg{true, 4, SpillPolicy::kBlock};
    auto writer = std::make_shared<DiskWriterThread>(
        "wr", capture::OsSpec::freebsd_5_4(), f.disk, cfg);
    writer->set_sink(&ring_writer);
    auto producer = std::make_shared<Producer>(*writer, std::move(records));
    f.machine.spawn(writer);
    f.machine.spawn(producer);
    f.sim.run();

    EXPECT_TRUE(producer->done);
    EXPECT_EQ(writer->spilled(), 0u);
    EXPECT_EQ(writer->records_written(), 101u);
    EXPECT_EQ(ring_out.str(), inline_out.str());
}

TEST(DiskWriterThread, BytelessRecordAtASinkFailsLoudly) {
    // A record whose app read no bytes carries no packet; a sink must not
    // dereference it.
    Fixture f;
    std::stringstream out;
    pcap::FileWriter sink{out, 1515};
    auto writer = std::make_shared<DiskWriterThread>(
        "wr", capture::OsSpec::freebsd_5_4(), f.disk, DiskWriterConfig{true, 4});
    writer->set_sink(&sink);
    std::vector<RecordRef> records{RecordRef{nullptr, 76, 76, sim::SimTime{}}};
    auto producer = std::make_shared<Producer>(*writer, std::move(records));
    f.machine.spawn(writer);
    f.machine.spawn(producer);
    EXPECT_THROW(f.sim.run(), std::logic_error);
    EXPECT_EQ(sink.records_written(), 0u);
}

TEST(DiskWriterThread, ChargesDiskOffTheProducerAndBlocksOnBackpressure) {
    Fixture f;
    // A tiny write-back queue forces the writer into DiskModel waits.
    DiskModel slow{f.machine, DiskSpec{1.0, 1.0, 4096}};
    auto arena = net::PacketArena::create();
    std::vector<RecordRef> records;
    std::uint64_t total_bytes = 0;
    for (std::uint64_t id = 1; id <= 64; ++id) {
        records.push_back(make_record(*arena, id, 512, 0));
        total_bytes += 512;
    }
    DiskWriterConfig cfg{true, 8, SpillPolicy::kBlock};
    auto writer = std::make_shared<DiskWriterThread>(
        "wr", capture::OsSpec::freebsd_5_4(), slow, cfg);
    auto producer = std::make_shared<Producer>(*writer, std::move(records));
    f.machine.spawn(writer);
    f.machine.spawn(producer);
    f.sim.run();
    EXPECT_TRUE(producer->done);
    EXPECT_EQ(writer->records_written(), 64u);
    EXPECT_EQ(writer->bytes_written(), total_bytes);
    // All bytes reached the disk model, off the producer thread.
    EXPECT_EQ(slow.bytes_written() + slow.queued(), total_bytes);
    EXPECT_GT(f.machine.total_busy().ns(), 0);
}

// ---- harness level -------------------------------------------------------

harness::RunConfig pipeline_run(double rate) {
    harness::RunConfig cfg;
    cfg.packets = 5'000;
    cfg.rate_mbps = rate;
    cfg.collect_metrics = true;
    return cfg;
}

harness::SutConfig pipeline_sut(std::size_t ring_slots, SpillPolicy spill) {
    auto sut = harness::standard_sut("moorhen");
    sut.buffer_bytes = 10ull << 20;
    sut.app_load.disk_bytes_per_packet = 76;
    sut.disk_writer.enabled = true;
    sut.disk_writer.ring_slots = ring_slots;
    sut.disk_writer.spill = spill;
    return sut;
}

TEST(DiskWriterPipeline, DropIdentityStaysExactWithSpills) {
    // Overload with a tiny ring and a drop policy: whatever spills must
    // land in the disk_spill bucket and the closed per-app identity
    // delivered + Σdrops == generated must still hold exactly.
    for (const SpillPolicy spill : {SpillPolicy::kDropNewest, SpillPolicy::kDropOldest}) {
        const auto result = harness::run_once({pipeline_sut(4, spill)}, pipeline_run(900.0));
        ASSERT_TRUE(result.metrics.enabled);
        const auto& app = result.metrics.suts[0].apps[0];
        EXPECT_EQ(app.delivered + app.drops_total(), result.metrics.generated)
            << to_string(spill);
        EXPECT_GT(app.delivered, 0u);
    }
}

TEST(DiskWriterPipeline, BlockPolicySpillsNothing) {
    const auto result =
        harness::run_once({pipeline_sut(256, SpillPolicy::kBlock)}, pipeline_run(300.0));
    ASSERT_TRUE(result.metrics.enabled);
    const auto& app = result.metrics.suts[0].apps[0];
    EXPECT_EQ(app.drop_disk_spill, 0u);
    EXPECT_EQ(app.delivered + app.drops_total(), result.metrics.generated);
    EXPECT_GT(app.delivered, 0u);
}

TEST(DiskWriterPipeline, DisabledPipelineIgnoresRingConfig) {
    // With the pipeline off the run must be the classic inline-writer
    // model regardless of ring/spill settings (this is what keeps the
    // committed goldens byte-identical): identical event counts and
    // capture rates whatever the dormant config says.
    auto plain = pipeline_sut(256, SpillPolicy::kBlock);
    plain.disk_writer = DiskWriterConfig{};  // defaults, disabled
    auto odd = pipeline_sut(7, SpillPolicy::kDropOldest);
    odd.disk_writer.enabled = false;
    const auto a = harness::run_once({plain}, pipeline_run(400.0));
    const auto b = harness::run_once({odd}, pipeline_run(400.0));
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.events_executed, b.events_executed);
    ASSERT_EQ(a.suts.size(), b.suts.size());
    EXPECT_DOUBLE_EQ(a.suts[0].capture_avg_pct, b.suts[0].capture_avg_pct);
    const auto& app = a.metrics.suts[0].apps[0];
    EXPECT_EQ(app.drop_disk_spill, 0u);
}

}  // namespace
}  // namespace capbench::load
