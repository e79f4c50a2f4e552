// Multi-queue RSS receive path: flow steering across NIC queues, per-queue
// IRQ affinity, per-queue NIC counters that sum to the aggregates, the
// three fanout delivery modes, and the closed per-app drop identity once
// fanout enters the picture.
#include <gtest/gtest.h>

#include <cstdint>

#include "capbench/harness/measurement.hpp"
#include "capbench/harness/testbed.hpp"

namespace capbench::harness {
namespace {

/// Runs one SUT to completion (generation + full drain) and returns the
/// testbed for inspection.
struct MiniRun {
    explicit MiniRun(TestbedConfig tb) : bed{std::move(tb)} {
        bed.start_suts();
        bool done = false;
        bed.generator().start(sim::SimTime{}, [&] { done = true; });
        while (!done) bed.sim().run(bed.sim().now() + sim::seconds(1));
        bed.sim().run(bed.sim().now() + sim::seconds(3));
    }

    [[nodiscard]] Sut& sut() { return *bed.suts()[0]; }
    [[nodiscard]] std::uint64_t generated() {
        return bed.monitor_switch().egress_counters().packets;
    }

    Testbed bed;
};

TestbedConfig multiqueue_testbed(SutConfig sut, std::uint64_t packets = 20'000,
                                 double rate_mbps = 300.0, std::uint32_t flows = 64) {
    TestbedConfig tb;
    tb.gen.count = packets;
    tb.gen.rate_mbps = rate_mbps;
    tb.gen.flow_count = flows;
    tb.suts.push_back(std::move(sut));
    return tb;
}

SutConfig swan_queues(int queues) {
    SutConfig sut = standard_sut("swan");
    sut.cores = queues;
    sut.nic.queues = queues;
    sut.buffer_bytes = 10u << 20;
    return sut;
}

std::uint64_t sum_over_queues(const Sut& s, std::uint64_t (capture::Nic::*field)(int) const) {
    std::uint64_t total = 0;
    for (int q = 0; q < s.nic().queue_count(); ++q) total += (s.nic().*field)(q);
    return total;
}

TEST(MultiQueue, FlowsSpreadAcrossQueuesAndFrameCountsSumToAggregate) {
    MiniRun run{multiqueue_testbed(swan_queues(4))};
    Sut& s = run.sut();

    ASSERT_EQ(s.nic().queue_count(), 4);
    EXPECT_EQ(s.nic().frames_seen(), run.generated());
    // 64 flows through a uniform indirection table land on every queue.
    for (int q = 0; q < 4; ++q) EXPECT_GT(s.nic().queue_frames(q), 0u) << "queue " << q;
    EXPECT_EQ(sum_over_queues(s, &capture::Nic::queue_frames), s.nic().frames_seen());
    EXPECT_EQ(sum_over_queues(s, &capture::Nic::queue_ring_drops), s.nic().ring_drops());
    EXPECT_EQ(sum_over_queues(s, &capture::Nic::queue_backlog_drops),
              s.nic().backlog_drops());
}

TEST(MultiQueue, SingleQueueSliceEqualsTheAggregate) {
    MiniRun run{multiqueue_testbed(standard_sut("swan"))};
    Sut& s = run.sut();

    ASSERT_EQ(s.nic().queue_count(), 1);
    EXPECT_EQ(s.nic().queue_frames(0), s.nic().frames_seen());
    EXPECT_EQ(s.nic().queue_ring_drops(0), s.nic().ring_drops());
}

TEST(MultiQueue, IrqAffinityPinsQueueInterruptsRoundRobin) {
    SutConfig sut = swan_queues(4);
    sut.cores = 2;
    sut.nic.irq_affinity = {1, 0};  // queue i -> affinity[i % 2]
    MiniRun run{multiqueue_testbed(std::move(sut))};
    Sut& s = run.sut();
    EXPECT_EQ(s.nic().queue_cpu(0), 1);
    EXPECT_EQ(s.nic().queue_cpu(1), 0);
    EXPECT_EQ(s.nic().queue_cpu(2), 1);
    EXPECT_EQ(s.nic().queue_cpu(3), 0);
}

TEST(MultiQueue, DefaultAffinitySpreadsQueuesOverCpus) {
    SutConfig sut = swan_queues(4);
    sut.cores = 2;  // 4 queues on 2 CPUs: irqbalance-style i % cpus
    MiniRun run{multiqueue_testbed(std::move(sut))};
    Sut& s = run.sut();
    EXPECT_EQ(s.nic().queue_cpu(0), 0);
    EXPECT_EQ(s.nic().queue_cpu(1), 1);
    EXPECT_EQ(s.nic().queue_cpu(2), 0);
    EXPECT_EQ(s.nic().queue_cpu(3), 1);
}

TEST(MultiQueue, ConstructionRejectsBadShapes) {
    sim::Simulator sim;

    SutConfig bad_cpu = swan_queues(2);
    bad_cpu.nic.irq_affinity = {0, 9};  // CPU 9 does not exist on 2 cores
    EXPECT_THROW(Sut(sim, std::move(bad_cpu)), std::invalid_argument);

    SutConfig bad_table = swan_queues(2);
    bad_table.nic.indirection = capture::rss::IndirectionTable::uniform(4);
    EXPECT_THROW(Sut(sim, std::move(bad_table)), std::invalid_argument);

    SutConfig no_queues = standard_sut("swan");
    no_queues.nic.queues = 0;
    EXPECT_THROW(Sut(sim, std::move(no_queues)), std::invalid_argument);

    SutConfig negative_cpu = swan_queues(2);
    negative_cpu.nic.irq_affinity = {-1};
    EXPECT_THROW(Sut(sim, std::move(negative_cpu)), std::invalid_argument);
}

TEST(MultiQueue, SkewedIndirectionConcentratesFramesOnTheHotQueue) {
    SutConfig sut = swan_queues(4);
    sut.nic.indirection_skew = 0.75;
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 300.0, 256)};
    Sut& s = run.sut();

    const std::uint64_t hot = s.nic().queue_frames(0);
    EXPECT_GT(hot, s.nic().frames_seen() / 2);
    for (int q = 1; q < 4; ++q) EXPECT_LT(s.nic().queue_frames(q), hot) << "queue " << q;
}

TEST(MultiQueue, ExplicitIndirectionTableIsHonored) {
    SutConfig sut = swan_queues(4);
    // A table that only ever names queues 0 and 1: queues 2/3 stay idle.
    sut.nic.indirection = capture::rss::IndirectionTable::uniform(2);
    MiniRun run{multiqueue_testbed(std::move(sut))};
    Sut& s = run.sut();
    EXPECT_GT(s.nic().queue_frames(0), 0u);
    EXPECT_GT(s.nic().queue_frames(1), 0u);
    EXPECT_EQ(s.nic().queue_frames(2), 0u);
    EXPECT_EQ(s.nic().queue_frames(3), 0u);
}

TEST(Fanout, MirrorModeDeliversEverythingToEveryApp) {
    SutConfig sut = swan_queues(4);
    sut.app_count = 2;  // fanout defaults to kMirror
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 200.0)};
    Sut& s = run.sut();
    for (std::size_t a = 0; a < 2; ++a) {
        EXPECT_EQ(s.capture_stats(a).delivered, run.generated()) << "app " << a;
        EXPECT_EQ(s.capture_stats(a).fanout_skipped, 0u) << "app " << a;
    }
}

TEST(Fanout, QueueModePinsEachAppToItsQueue) {
    SutConfig sut = swan_queues(4);
    sut.app_count = 4;
    sut.fanout = capture::FanoutMode::kQueue;
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 200.0)};
    Sut& s = run.sut();

    const std::uint64_t into_kernel =
        run.generated() - s.nic().ring_drops() - s.nic().backlog_drops();
    std::uint64_t delivered_total = 0;
    for (std::size_t a = 0; a < 4; ++a) {
        const capture::CaptureStats& st = s.capture_stats(a);
        // Every kernel-side packet either reached this app or went to a
        // sibling: the fanout bucket closes the identity.
        EXPECT_EQ(st.kernel_seen + st.fanout_skipped, into_kernel) << "app " << a;
        EXPECT_GT(st.delivered, 0u) << "app " << a;
        delivered_total += st.delivered;
        // App a only ever sees its pinned queue a: exactly the frames
        // that queue handed to the kernel.
        const int q = static_cast<int>(a);
        EXPECT_EQ(st.kernel_seen, s.nic().queue_frames(q) - s.nic().queue_ring_drops(q) -
                                      s.nic().queue_backlog_drops(q))
            << "app " << a;
    }
    // Each packet went to exactly one app; at this gentle rate none drop.
    EXPECT_EQ(delivered_total, run.generated());
}

TEST(Fanout, ClusterModeDeliversEachPacketToExactlyOneApp) {
    SutConfig sut = swan_queues(2);
    sut.app_count = 3;
    sut.fanout = capture::FanoutMode::kCluster;
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 200.0)};
    Sut& s = run.sut();

    const std::uint64_t into_kernel =
        run.generated() - s.nic().ring_drops() - s.nic().backlog_drops();
    std::uint64_t seen_total = 0, delivered_total = 0;
    for (std::size_t a = 0; a < 3; ++a) {
        const capture::CaptureStats& st = s.capture_stats(a);
        EXPECT_EQ(st.kernel_seen + st.fanout_skipped, into_kernel) << "app " << a;
        EXPECT_LT(st.delivered, run.generated()) << "app " << a;  // a strict share
        EXPECT_GT(st.delivered, 0u) << "app " << a;
        seen_total += st.kernel_seen;
        delivered_total += st.delivered;
    }
    EXPECT_EQ(seen_total, into_kernel);  // exactly-one-tap delivery
    EXPECT_EQ(delivered_total, run.generated());
}

// ---- the obs layer keeps the drop identity closed under fanout ---------------

TEST(MultiQueueObs, DropIdentityStaysClosedPerAppWithFanout) {
    SutConfig sut = swan_queues(4);
    sut.app_count = 2;
    sut.fanout = capture::FanoutMode::kCluster;

    RunConfig cfg;
    cfg.packets = 6'000;
    cfg.rate_mbps = 400.0;
    cfg.flow_count = 64;
    cfg.collect_metrics = true;
    const auto result = run_once({std::move(sut)}, cfg);

    ASSERT_TRUE(result.metrics.enabled);
    ASSERT_EQ(result.metrics.suts.size(), 1u);
    std::uint64_t fanout_total = 0;
    for (const auto& app : result.metrics.suts[0].apps) {
        EXPECT_EQ(app.delivered + app.drops_total(), result.metrics.generated);
        fanout_total += app.drop_fanout;
    }
    // Cluster fanout with two apps: each packet skipped exactly one tap.
    EXPECT_GT(fanout_total, 0u);
}

TEST(MultiQueueObs, PerQueueNicCountersAppearInTheRegistry) {
    SutConfig sut = swan_queues(4);

    RunConfig cfg;
    cfg.packets = 6'000;
    cfg.rate_mbps = 300.0;
    cfg.flow_count = 64;
    cfg.collect_metrics = true;
    const auto result = run_once({std::move(sut)}, cfg);

    ASSERT_TRUE(result.metrics.enabled);
    std::uint64_t frames_total = 0;
    int frame_counters = 0;
    for (const auto& [name, value] : result.metrics.counters) {
        if (name.rfind("capture.swan.q", 0) != 0) continue;
        if (name.find(".frames") != std::string::npos) {
            ++frame_counters;
            frames_total += value;
        }
    }
    EXPECT_EQ(frame_counters, 4);
    EXPECT_EQ(frames_total, result.metrics.generated);
}

}  // namespace
}  // namespace capbench::harness
