// Tests for the ParallelExecutor and the determinism contract of the
// parallel sweep path: same seed => byte-identical RunResults whatever
// the job count, and run_repeated's seed-variation stride stays pinned.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "capbench/harness/experiment.hpp"
#include "capbench/harness/parallel.hpp"

namespace capbench::harness {
namespace {

void expect_identical(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.offered_mbps, b.offered_mbps);  // exact, not approximate
    ASSERT_EQ(a.suts.size(), b.suts.size());
    for (std::size_t i = 0; i < a.suts.size(); ++i) {
        const auto& x = a.suts[i];
        const auto& y = b.suts[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.per_app_capture_pct, y.per_app_capture_pct);
        EXPECT_EQ(x.capture_worst_pct, y.capture_worst_pct);
        EXPECT_EQ(x.capture_avg_pct, y.capture_avg_pct);
        EXPECT_EQ(x.capture_best_pct, y.capture_best_pct);
        EXPECT_EQ(x.cpu_pct, y.cpu_pct);
        EXPECT_EQ(x.nic_ring_drops, y.nic_ring_drops);
        EXPECT_EQ(x.backlog_drops, y.backlog_drops);
        EXPECT_EQ(x.buffer_drops, y.buffer_drops);
    }
}

void expect_identical(const std::vector<SweepRow>& a, const std::vector<SweepRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].rate_mbps, b[i].rate_mbps);
        expect_identical(a[i].result, b[i].result);
    }
}

TEST(ParallelExecutor, ClampsJobsToAtLeastOne) {
    EXPECT_EQ(ParallelExecutor{}.jobs(), 1);
    EXPECT_EQ(ParallelExecutor{0}.jobs(), 1);
    EXPECT_EQ(ParallelExecutor{-3}.jobs(), 1);
    EXPECT_EQ(ParallelExecutor{4}.jobs(), 4);
}

TEST(ParallelExecutor, VisitsEveryIndexExactlyOnce) {
    for (const int jobs : {1, 2, 7}) {
        constexpr std::size_t kCount = 100;
        std::vector<std::atomic<int>> visits(kCount);
        const ParallelExecutor exec{jobs};
        exec.parallel_for(kCount, [&](std::size_t i) { ++visits[i]; });
        for (std::size_t i = 0; i < kCount; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
}

TEST(ParallelExecutor, ZeroCountIsANoOp) {
    std::atomic<int> calls{0};
    ParallelExecutor{4}.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelExecutor, PropagatesTheFirstException) {
    const ParallelExecutor exec{3};
    std::atomic<int> started{0};
    // The other points take a millisecond each, like a (very short) sweep
    // point, so the throw is caught while plenty of indices remain.  With
    // empty bodies the two other workers can drain all 50 indices while
    // the exception is still unwinding, and the check below would measure
    // thread scheduling instead of the executor.
    EXPECT_THROW(
        exec.parallel_for(50,
                          [&](std::size_t i) {
                              ++started;
                              if (i == 5) throw std::runtime_error("point 5 failed");
                              std::this_thread::sleep_for(std::chrono::milliseconds(1));
                          }),
        std::runtime_error);
    // After the throw no new indices are claimed; well under 50 run.
    EXPECT_LT(started.load(), 50);
}

TEST(ParallelSweep, RateSweepIsBitIdenticalAcrossJobCounts) {
    const std::vector<SutConfig> suts{standard_sut("moorhen"), standard_sut("swan")};
    RunConfig cfg;
    cfg.packets = 2'000;
    const std::vector<double> rates{100, 300, 500, 700, 900};

    const auto serial = rate_sweep(suts, cfg, rates, /*reps=*/1);
    for (const int jobs : {2, 5}) {
        const ParallelExecutor exec{jobs};
        const auto parallel = rate_sweep(suts, cfg, rates, /*reps=*/1, &exec);
        expect_identical(serial, parallel);
    }
}

TEST(ParallelSweep, BufferSweepIsBitIdenticalAcrossJobCounts) {
    const std::vector<SutConfig> suts{standard_sut("moorhen"), standard_sut("snipe")};
    RunConfig cfg;
    cfg.packets = 2'000;
    const std::vector<std::uint64_t> buffers_kb{128, 1024, 32768};

    const auto serial = buffer_sweep(suts, cfg, buffers_kb, /*reps=*/1);
    const ParallelExecutor exec{3};
    const auto parallel = buffer_sweep(suts, cfg, buffers_kb, /*reps=*/1, &exec);
    expect_identical(serial, parallel);
}

TEST(ParallelSweep, RepeatedPointsStayIdenticalInParallel) {
    // reps > 1 exercises run_repeated inside the worker threads.
    const std::vector<SutConfig> suts{standard_sut("flamingo")};
    RunConfig cfg;
    cfg.packets = 1'500;
    const std::vector<double> rates{200, 600};

    const auto serial = rate_sweep(suts, cfg, rates, /*reps=*/3);
    const ParallelExecutor exec{2};
    expect_identical(serial, rate_sweep(suts, cfg, rates, /*reps=*/3, &exec));
}

TEST(RunRepeated, SeedVariationStrideIsPinned) {
    // Figure 3.2 repeats each measurement with varied seeds; rep k runs at
    // base_seed + k*7919.  This is observable behaviour (it decides which
    // workloads get averaged), so changing the stride must fail a test.
    const std::vector<SutConfig> suts{standard_sut("moorhen")};
    RunConfig cfg;
    cfg.packets = 2'000;
    cfg.rate_mbps = 900.0;
    cfg.seed = 5;

    const RunResult rep0 = run_once(suts, cfg);
    RunConfig second = cfg;
    second.seed = 5 + 7919;
    const RunResult rep1 = run_once(suts, second);
    // The seed varies the sampled packet sizes, so the reps differ.
    EXPECT_NE(rep0.offered_mbps, rep1.offered_mbps);

    const RunResult agg = run_repeated(suts, cfg, 2);
    EXPECT_EQ(agg.generated, (rep0.generated + rep1.generated) / 2);
    EXPECT_EQ(agg.offered_mbps, (rep0.offered_mbps + rep1.offered_mbps) / 2.0);
    ASSERT_EQ(agg.suts.size(), 1u);
    EXPECT_EQ(agg.suts[0].capture_avg_pct,
              (rep0.suts[0].capture_avg_pct + rep1.suts[0].capture_avg_pct) / 2.0);
    EXPECT_EQ(agg.suts[0].cpu_pct, (rep0.suts[0].cpu_pct + rep1.suts[0].cpu_pct) / 2.0);
    EXPECT_EQ(agg.suts[0].buffer_drops,
              rep0.suts[0].buffer_drops + rep1.suts[0].buffer_drops);
}

}  // namespace
}  // namespace capbench::harness
