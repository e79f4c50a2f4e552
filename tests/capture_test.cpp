// Tests for the capture stacks: BSD BPF double buffer, Linux packet
// socket, mmap ring, NIC service loop and driver delivery.
#include <gtest/gtest.h>

#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/driver.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/capture/nic.hpp"

namespace capbench::capture {
namespace {

using hostsim::ArchSpec;
using hostsim::CpuState;
using hostsim::Machine;
using hostsim::MachineSpec;
using hostsim::Thread;
using hostsim::Work;

net::PacketPtr synthetic(std::uint64_t id, std::uint32_t frame_len) {
    return std::make_shared<net::Packet>(id, frame_len, sim::SimTime{});
}

struct Fixture {
    sim::Simulator sim;
    Machine machine{sim, MachineSpec{ArchSpec::amd_opteron(), 2, false}, {}};
};

/// The record the driver commits for `p` to a tap whose reader reads no
/// bytes.
CaptureRecord record(const net::PacketPtr& p) { return CaptureRecord::of(p, false); }

/// Runs the plan/commit pair directly (bypassing the driver) for unit
/// testing of the buffer state machines.
void deliver(PacketTap& tap, const net::PacketPtr& p) {
    tap.plan(p);
    tap.commit(record(p), 0, 0);
}

/// Captured bytes of a fetched batch (after snaplen and filter).
std::uint64_t caplen_sum(const StackEndpoint::Batch& batch) {
    std::uint64_t sum = 0;
    for (const CaptureRecord& r : batch.packets) sum += r.caplen;
    return sum;
}

TEST(BsdBpf, StoresUntilFullThenRotatesOnOverflow) {
    Fixture f;
    // Each 1000-byte packet occupies 1000 + 18 header, word aligned = 1020.
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 2048, 1515};
    deliver(dev, synthetic(1, 1000));
    deliver(dev, synthetic(2, 1000));
    // No rotation yet: both fit exactly into one 2048-byte half.
    EXPECT_EQ(dev.fetch(999), std::nullopt);
    // Third packet overflows the STORE half -> rotate.
    deliver(dev, synthetic(3, 1000));
    const auto batch = dev.fetch(999);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->packets.size(), 2u);
    EXPECT_EQ(caplen_sum(*batch), 2000u);
    // The third packet sits in the fresh STORE half.
    EXPECT_EQ(dev.stats().accepted, 3u);
    EXPECT_EQ(dev.stats().dropped_buffer, 0u);
}

TEST(BsdBpf, DropsWhenBothBuffersFull) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1024, 1515};
    deliver(dev, synthetic(1, 900));  // fills STORE
    deliver(dev, synthetic(2, 900));  // rotate, fills new STORE
    deliver(dev, synthetic(3, 900));  // HOLD occupied, STORE full -> drop
    EXPECT_EQ(dev.stats().dropped_buffer, 1u);
}

TEST(BsdBpf, ReadTimeoutRotatesPartialStore) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    dev.enable_read_timeout(sim::milliseconds(20));
    deliver(dev, synthetic(1, 100));
    EXPECT_EQ(dev.fetch(999), std::nullopt);  // arms the timeout
    f.sim.run(f.sim.now() + sim::milliseconds(25));
    const auto batch = dev.fetch(999);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->packets.size(), 1u);
}

TEST(BsdBpf, SnaplenTruncatesCaptureLength) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 76};
    deliver(dev, synthetic(1, 1500));
    deliver(dev, synthetic(2, 1500));
    // Force rotation via another packet after filling? Use timeout instead.
    dev.enable_read_timeout(sim::milliseconds(20));
    EXPECT_EQ(dev.fetch(999), std::nullopt);
    f.sim.run(f.sim.now() + sim::milliseconds(25));
    const auto batch = dev.fetch(999);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(caplen_sum(*batch), 2u * 76u);
}

TEST(BsdBpf, OversizedPacketIsDroppedNotStored) {
    Fixture f;
    // A 1000-byte packet occupies 1000 + 18 header, word aligned = 1020
    // slot bytes — more than an entire 512-byte buffer half.  Real bpf
    // catchpacket() drops it; storing it would push stored_bytes past the
    // configured buffer size.
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 512, 1515};
    dev.enable_read_timeout(sim::milliseconds(20));
    deliver(dev, synthetic(1, 1000));
    EXPECT_EQ(dev.stats().accepted, 1u);
    EXPECT_EQ(dev.stats().dropped_buffer, 1u);
    // Nothing was stored: even after the read timeout there is no data.
    EXPECT_EQ(dev.fetch(999), std::nullopt);
    f.sim.run(f.sim.now() + sim::milliseconds(25));
    EXPECT_EQ(dev.fetch(999), std::nullopt);

    // A packet that does fit still flows through normally.
    deliver(dev, synthetic(2, 100));
    EXPECT_EQ(dev.fetch(999), std::nullopt);
    f.sim.run(f.sim.now() + sim::milliseconds(25));
    const auto batch = dev.fetch(999);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->packets.size(), 1u);
    EXPECT_EQ(batch->packets.front().frame_len, 100u);
}

TEST(BsdBpf, FilterRejectsAndCountsSeparately) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    dev.install_filter(bpf::reject_all());
    deliver(dev, synthetic(1, 500));
    EXPECT_EQ(dev.stats().kernel_seen, 1u);
    EXPECT_EQ(dev.stats().dropped_filter, 1u);
    EXPECT_EQ(dev.stats().accepted, 0u);
}

TEST(BsdBpf, PlanChargesCopyOnlyWhenAccepted) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    const auto accepted = dev.plan(synthetic(1, 1000));
    dev.commit(record(synthetic(1, 1000)), 0, 0);
    dev.install_filter(bpf::reject_all());
    const auto rejected = dev.plan(synthetic(2, 1000));
    dev.commit(record(synthetic(2, 1000)), 0, 0);
    EXPECT_GT(accepted.copy_bytes, 900.0);
    EXPECT_EQ(rejected.copy_bytes, 0.0);
}

TEST(LinuxSocket, TruesizeChargesSlabRounded) {
    Fixture f;
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 64 * 1024, 1515};
    // 645-byte packet -> 2048 slab + 256 overhead = 2304 charged.
    deliver(sock, synthetic(1, 645));
    EXPECT_EQ(sock.buffer_occupancy(), 2304u);
}

TEST(LinuxSocket, TruesizeMatchesTheSlabFormula) {
    Fixture f;
    for (const std::uint32_t slab : {2048u, 1000u, 1u, 0u}) {
        OsSpec os = OsSpec::linux_2_6_11();
        os.skb_truesize_slab = slab;
        const LinuxPacketSocket sock{f.machine, os, 64 * 1024, 1515};
        for (std::uint32_t len = 0; len <= 2 * slab + 1; ++len) {
            const std::uint64_t expect =
                slab == 0 ? len
                          : (std::uint64_t{len} + slab - 1) / slab * slab + os.skb_overhead;
            ASSERT_EQ(sock.truesize(len), expect) << "slab " << slab << " frame " << len;
        }
        if (slab == 0) {
            for (const std::uint32_t len : {64u, 1500u, 9000u, 65535u})
                EXPECT_EQ(sock.truesize(len), len);
        }
    }
}

TEST(LinuxSocket, DropsWhenRmemExhausted) {
    Fixture f;
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 8 * 1024, 1515};
    // 2304 truesize each: 3 fit in 8192, the 4th drops.
    for (int i = 0; i < 4; ++i) deliver(sock, synthetic(i, 645));
    EXPECT_EQ(sock.stats().accepted, 4u);
    EXPECT_EQ(sock.stats().dropped_buffer, 1u);
    auto batch = sock.fetch(999);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->packets.size(), 3u);
    EXPECT_EQ(sock.buffer_occupancy(), 0u);
}

TEST(LinuxSocket, FetchChargesPerPacketSyscalls) {
    Fixture f;
    const auto& os = OsSpec::linux_2_6_11();
    LinuxPacketSocket sock{f.machine, os, 1 << 20, 1515};
    for (int i = 0; i < 5; ++i) deliver(sock, synthetic(i, 200));
    const auto batch = sock.fetch(999);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->packets.size(), 5u);
    // Five recvfrom() calls worth of cycles.
    EXPECT_NEAR(batch->fetch_work.cycles,
                5.0 * (os.syscall_overhead.cycles + os.deliver_per_packet.cycles), 1.0);
    EXPECT_NEAR(batch->fetch_work.copy_bytes, 5.0 * 200.0, 1.0);
}

TEST(LinuxSocket, FetchRespectsMaxPackets) {
    Fixture f;
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    for (int i = 0; i < 10; ++i) deliver(sock, synthetic(i, 100));
    EXPECT_EQ(sock.fetch(4)->packets.size(), 4u);
    EXPECT_EQ(sock.fetch(999)->packets.size(), 6u);
    EXPECT_EQ(sock.fetch(999), std::nullopt);
}

TEST(MmapRing, BoundedBySlots) {
    Fixture f;
    MmapRing ring{f.machine, OsSpec::linux_2_6_11(), 16 * 2048, 1515};
    EXPECT_EQ(ring.buffer_capacity(), 16u);
    for (int i = 0; i < 20; ++i) deliver(ring, synthetic(i, 500));
    EXPECT_EQ(ring.stats().dropped_buffer, 4u);
    EXPECT_EQ(ring.fetch(999)->packets.size(), 16u);
}

TEST(MmapRing, FetchIsCheap) {
    Fixture f;
    const auto& os = OsSpec::linux_2_6_11();
    MmapRing ring{f.machine, os, 1 << 20, 1515};
    for (int i = 0; i < 8; ++i) deliver(ring, synthetic(i, 500));
    const auto batch = ring.fetch(999);
    // No syscall per packet: far below the socket path's cost.
    EXPECT_LT(batch->fetch_work.cycles, os.syscall_overhead.cycles);
    EXPECT_EQ(batch->fetch_work.copy_bytes, 0.0);
}

TEST(Taps, RealBytesRunTheRealFilter) {
    Fixture f;
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    sock.install_filter(bpf::filter::compile_filter("udp"));
    // A synthetic arp-ish frame with bytes: ethertype 0x0806 at offset 12.
    std::vector<std::byte> frame(64);
    frame[12] = std::byte{0x08};
    frame[13] = std::byte{0x06};
    auto arp = std::make_shared<net::Packet>(1, std::move(frame), sim::SimTime{});
    deliver(sock, arp);
    EXPECT_EQ(sock.stats().dropped_filter, 1u);
}

// ---- plan/commit protocol -----------------------------------------------------

TEST(Taps, CommitWithoutPlanFailsFast) {
    // A commit with no outstanding plan used to read the verdict FIFO out
    // of bounds silently in Release builds; all three stacks must throw.
    Fixture f;
    const auto p = synthetic(1, 500);

    BsdBpfDev bpf{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    EXPECT_THROW(bpf.commit(record(p), 0, 0), std::logic_error);

    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    EXPECT_THROW(sock.commit(record(p), 0, 0), std::logic_error);

    MmapRing ring{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    EXPECT_THROW(ring.commit(record(p), 0, 0), std::logic_error);
}

TEST(Taps, ExtraCommitAfterMatchedPairsFailsFast) {
    Fixture f;
    const auto p = synthetic(1, 500);
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    deliver(sock, p);                               // matched pair: fine
    EXPECT_THROW(sock.commit(record(p), 0, 0), std::logic_error);  // one commit too many
    deliver(sock, p);                               // queue still usable
    EXPECT_EQ(sock.stats().accepted, 2u);
}

// ---- read-timeout re-arm ------------------------------------------------------

/// An application thread that blocks forever (re-blocking each time it is
/// woken) — keeps BsdBpfDev's reader in State::kBlocked so the timeout
/// re-arm path is taken.
struct ParkedReader final : Reader {
    ParkedReader() : Reader("parked-reader") {}
    void main() override { park(); }
    [[nodiscard]] bool reads_bytes() const override { return false; }
    void park() {
        block([this] { park(); });
    }
};

TEST(BsdBpf, TimeoutReArmsWhileReaderStaysBlocked) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    auto reader = std::make_shared<ParkedReader>();
    f.machine.spawn(reader);
    dev.set_reader(reader.get());
    dev.enable_read_timeout(sim::milliseconds(20));

    // The reader finds no data and goes to sleep; this arms the timeout.
    EXPECT_EQ(dev.fetch(999), std::nullopt);
    // A packet arrives only at t=50ms — after the first timeout fired on
    // an empty STORE.  Delivery depends on the timer re-arming at 20ms and
    // 40ms while the reader stays blocked: the 60ms firing rotates.
    f.sim.schedule_at(sim::SimTime{} + sim::milliseconds(50),
                      [&dev] { deliver(dev, synthetic(1, 400)); });
    f.sim.run(sim::SimTime{} + sim::milliseconds(100));
    EXPECT_EQ(reader->state(), Thread::State::kBlocked);

    const auto batch = dev.fetch(999);
    ASSERT_TRUE(batch.has_value()) << "timeout did not re-arm while the reader waited";
    EXPECT_EQ(batch->packets.size(), 1u);
}

TEST(BsdBpf, NoReArmAfterHoldReadyUntilNextFetch) {
    Fixture f;
    BsdBpfDev dev{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    auto reader = std::make_shared<ParkedReader>();
    f.machine.spawn(reader);
    dev.set_reader(reader.get());
    dev.enable_read_timeout(sim::milliseconds(20));

    EXPECT_EQ(dev.fetch(999), std::nullopt);  // arm
    deliver(dev, synthetic(1, 400));
    f.sim.run(sim::SimTime{} + sim::milliseconds(25));  // rotate at 20ms

    // HOLD is ready; the timer must NOT have re-armed.  A second packet
    // sits in STORE and stays there however long we wait...
    deliver(dev, synthetic(2, 500));
    f.sim.run(sim::SimTime{} + sim::milliseconds(150));
    const auto first = dev.fetch(999);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->packets.size(), 1u);
    EXPECT_EQ(first->packets.front().frame_len, 400u);

    // ...until the NEXT empty fetch arms a fresh timeout that rotates it.
    EXPECT_EQ(dev.fetch(999), std::nullopt);
    f.sim.run(f.sim.now() + sim::milliseconds(25));
    const auto second = dev.fetch(999);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->packets.size(), 1u);
    EXPECT_EQ(second->packets.front().frame_len, 500u);
}

// ---- batch vector pooling -----------------------------------------------------

TEST(Taps, RecycledBatchVectorsKeepTheirStorage) {
    // After recycle(), the next fetch must reuse the returned vector's
    // storage instead of allocating a new one.
    Fixture f;
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    for (int i = 0; i < 8; ++i) deliver(sock, synthetic(i, 200));
    auto batch = sock.fetch(8);
    ASSERT_TRUE(batch.has_value());
    const CaptureRecord* storage = batch->packets.data();
    sock.recycle(std::move(batch->packets));

    for (int i = 8; i < 16; ++i) deliver(sock, synthetic(i, 200));
    const auto again = sock.fetch(8);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->packets.data(), storage) << "fetch reallocated instead of reusing";

    MmapRing ring{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515};
    for (int i = 0; i < 8; ++i) deliver(ring, synthetic(i, 200));
    auto rb = ring.fetch(8);
    ASSERT_TRUE(rb.has_value());
    const CaptureRecord* ring_storage = rb->packets.data();
    ring.recycle(std::move(rb->packets));
    for (int i = 8; i < 16; ++i) deliver(ring, synthetic(i, 200));
    EXPECT_EQ(ring.fetch(8)->packets.data(), ring_storage);
}

// ---- NIC + driver -------------------------------------------------------------

struct CountingTap : PacketTap {
    int planned = 0;
    int committed = 0;
    int skipped = 0;
    Work plan(const net::PacketPtr&) override {
        ++planned;
        return Work{.cycles = 500};
    }
    void commit(const CaptureRecord&, std::int64_t, std::int64_t) override { ++committed; }
    void fanout_skip() override { ++skipped; }
};

TEST(Driver, CommitsOnlyAfterKernelWorkCompletes) {
    Fixture f;
    Driver driver{f.machine, OsSpec::freebsd_5_4()};
    CountingTap tap;
    driver.attach(tap);
    driver.process(synthetic(1, 500));
    EXPECT_EQ(tap.planned, 1);
    EXPECT_EQ(tap.committed, 0);  // cost not yet paid
    f.sim.run();
    EXPECT_EQ(tap.committed, 1);
    EXPECT_GT(f.machine.cpu(0).in_state(CpuState::kInterrupt).ns(), 0);
}

TEST(Driver, LinuxAccountsAsSystemTime) {
    Fixture f;
    Driver driver{f.machine, OsSpec::linux_2_6_11()};
    CountingTap tap;
    driver.attach(tap);
    driver.process(synthetic(1, 500));
    f.sim.run();
    EXPECT_GT(f.machine.cpu(0).in_state(CpuState::kSystem).ns(), 0);
    EXPECT_EQ(f.machine.cpu(0).in_state(CpuState::kInterrupt).ns(), 0);
}

TEST(Nic, RingOverflowDropsFrames) {
    Fixture f;
    Driver driver{f.machine, OsSpec::freebsd_5_4()};
    CountingTap tap;
    driver.attach(tap);
    NicModel model;
    model.ring_slots = 8;
    Nic nic{f.machine, OsSpec::freebsd_5_4(), model, driver};
    // 20 frames arrive back-to-back with no sim time to drain.
    for (int i = 0; i < 20; ++i) nic.on_frame(synthetic(i, 500));
    EXPECT_EQ(nic.frames_seen(), 20u);
    EXPECT_GT(nic.ring_drops(), 0u);
    f.sim.run();
    EXPECT_EQ(tap.committed + static_cast<int>(nic.ring_drops()), 20);
}

TEST(Nic, ServesAllFramesWhenPaced) {
    Fixture f;
    Driver driver{f.machine, OsSpec::freebsd_5_4()};
    CountingTap tap;
    driver.attach(tap);
    Nic nic{f.machine, OsSpec::freebsd_5_4(), NicModel{}, driver};
    for (int i = 0; i < 100; ++i) {
        f.sim.schedule_in(sim::microseconds(10 * i),
                          [&nic, i] { nic.on_frame(synthetic(i, 500)); });
    }
    f.sim.run();
    EXPECT_EQ(tap.committed, 100);
    EXPECT_EQ(nic.ring_drops(), 0u);
    EXPECT_EQ(nic.backlog_drops(), 0u);
}

TEST(OsSpecs, FactoriesAreDistinct) {
    EXPECT_EQ(OsSpec::linux_2_6_11().family, OsFamily::kLinux);
    EXPECT_EQ(OsSpec::freebsd_5_4().family, OsFamily::kFreeBsd);
    EXPECT_GT(OsSpec::freebsd_5_2_1().kernel_cost_multiplier, 1.0);
    EXPECT_TRUE(OsSpec::linux_2_6_11().sched.lifo_wakeup);
    EXPECT_FALSE(OsSpec::freebsd_5_4().sched.lifo_wakeup);
}

}  // namespace
}  // namespace capbench::capture
