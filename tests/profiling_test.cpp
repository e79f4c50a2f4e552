// Tests for the cpusage window view and trimusage postprocessing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "capbench/obs/timeseries.hpp"
#include "capbench/profiling/cpusage.hpp"
#include "capbench/profiling/trimusage.hpp"

namespace capbench::profiling {
namespace {

using sim::milliseconds;

/// Per-CPU state time spent in one sampler interval, in nanoseconds.
struct CpuDelta {
    std::int64_t user = 0;
    std::int64_t system = 0;
    std::int64_t irq = 0;
};

/// A one-SUT series with `cpus` CPUs, built the way IntervalSampler fills
/// one: ticks at every multiple of its interval, then the freeze-instant
/// sample last.
struct SeriesBuilder {
    obs::TimeSeries ts;

    explicit SeriesBuilder(std::size_t cpus) {
        ts.suts.resize(1);
        ts.suts[0].cpus.resize(cpus);
    }

    /// Appends the sample taken at `at`; `cpus[c]` is CPU c's time since
    /// the previous sample (missing CPUs were idle).
    void sample(sim::Duration at, const std::vector<CpuDelta>& cpus) {
        ts.time_ns.push(at.ns());
        for (std::size_t c = 0; c < ts.suts[0].cpus.size(); ++c) {
            const CpuDelta d = c < cpus.size() ? cpus[c] : CpuDelta{};
            ts.suts[0].cpus[c].user_ns.push(d.user);
            ts.suts[0].cpus[c].system_ns.push(d.system);
            ts.suts[0].cpus[c].interrupt_ns.push(d.irq);
        }
    }
};

/// One interval's per-CPU deltas of a deterministic, uneven load: every
/// state busy for a different share of each 1 ms step on each CPU.
std::vector<CpuDelta> uneven_step(std::size_t step, std::size_t cpus) {
    std::vector<CpuDelta> out(cpus);
    for (std::size_t c = 0; c < cpus; ++c) {
        const auto k = static_cast<std::int64_t>(step * 7 + c * 13);
        out[c] = CpuDelta{(k * 37'717) % 400'001, (k * 12'347) % 300'007,
                          (k * 51'511) % 250'013};
    }
    return out;
}

std::vector<CpuDelta> sum_steps(std::size_t first, std::size_t count, std::size_t cpus) {
    std::vector<CpuDelta> out(cpus);
    for (std::size_t k = first; k < first + count; ++k) {
        const auto step = uneven_step(k, cpus);
        for (std::size_t c = 0; c < cpus; ++c) {
            out[c].user += step[c].user;
            out[c].system += step[c].system;
            out[c].irq += step[c].irq;
        }
    }
    return out;
}

void expect_same_samples(const std::vector<UsageSample>& a, const std::vector<UsageSample>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].user_pct, b[i].user_pct) << "sample " << i;
        EXPECT_EQ(a[i].system_pct, b[i].system_pct) << "sample " << i;
        EXPECT_EQ(a[i].interrupt_pct, b[i].interrupt_pct) << "sample " << i;
        EXPECT_EQ(a[i].idle_pct, b[i].idle_pct) << "sample " << i;
    }
}

TEST(CpuSage, SamplesBusyFraction) {
    SeriesBuilder b{1};
    // 20 ms user, 10 ms system and 50 ms interrupt in the first 100 ms.
    b.sample(milliseconds(100), {{20'000'000, 10'000'000, 50'000'000}});
    b.sample(milliseconds(200), {});
    b.sample(milliseconds(300), {{0, 0, 100'000'000}});
    b.sample(milliseconds(350), {});  // freeze instant
    const auto samples = cpusage(b.ts, 0, milliseconds(100));
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_NEAR(samples[0].user_pct, 20.0, 1e-9);
    EXPECT_NEAR(samples[0].system_pct, 10.0, 1e-9);
    EXPECT_NEAR(samples[0].interrupt_pct, 50.0, 1e-9);
    EXPECT_NEAR(samples[0].idle_pct, 20.0, 1e-9);
    EXPECT_EQ(samples[1].busy_pct(), 0.0);
    // A fully busy window: idle is clamped at 0, never negative.
    EXPECT_NEAR(samples[2].interrupt_pct, 100.0, 1e-9);
    EXPECT_GE(samples[2].idle_pct, 0.0);
    EXPECT_NEAR(samples[2].idle_pct, 0.0, 1e-9);
}

TEST(CpuSage, AveragesAcrossCpus) {
    SeriesBuilder b{2};
    // CPU 0 busy for 99 of 100 ms, CPU 1 idle -> machine-wide 49.5 %.
    b.sample(milliseconds(100), {{0, 0, 99'000'000}, {}});
    b.sample(milliseconds(150), {});  // freeze instant
    const auto samples = cpusage(b.ts, 0, milliseconds(100));
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_NEAR(samples[0].interrupt_pct, 49.5, 1e-9);
    EXPECT_NEAR(samples[0].idle_pct, 50.5, 1e-9);
}

TEST(CpuSage, PrintFormats) {
    SeriesBuilder b{1};
    b.sample(milliseconds(100), {{0, 0, 25'000'000}});
    b.sample(milliseconds(150), {});
    const auto samples = cpusage(b.ts, 0, milliseconds(100));
    std::ostringstream human;
    print_usage(human, samples);
    EXPECT_EQ(human.str(), "user 0  system 0  interrupt 25  idle 75\n");
    std::ostringstream machine_readable;
    print_usage(machine_readable, samples, true);
    EXPECT_EQ(machine_readable.str(), "0:0:25:75\n");
}

TEST(CpuSage, OneAndTenMillisecondSeriesGiveTheSameTenMillisecondSamples) {
    constexpr std::size_t kCpus = 4;
    SeriesBuilder fine{kCpus};
    SeriesBuilder coarse{kCpus};
    for (std::size_t ms = 1; ms <= 100; ++ms)
        fine.sample(milliseconds(static_cast<std::int64_t>(ms)), uneven_step(ms - 1, kCpus));
    for (std::size_t w = 1; w <= 10; ++w)
        coarse.sample(milliseconds(static_cast<std::int64_t>(w * 10)),
                      sum_steps((w - 1) * 10, 10, kCpus));
    // Both freeze 4.5 ms into the eleventh window.
    fine.sample(sim::microseconds(104'500), sum_steps(100, 4, kCpus));
    coarse.sample(sim::microseconds(104'500), sum_steps(100, 4, kCpus));
    const auto from_fine = cpusage(fine.ts, 0, milliseconds(10));
    EXPECT_EQ(from_fine.size(), 10u);
    expect_same_samples(from_fine, cpusage(coarse.ts, 0, milliseconds(10)));
}

TEST(CpuSage, SeriesThatDoNotDivideTheWindowSampleOverTheCommonMultiple) {
    SeriesBuilder three{1};
    for (std::int64_t ms = 3; ms <= 60; ms += 3) three.sample(milliseconds(ms), {{0, 0, 1'500'000}});
    three.sample(milliseconds(61), {});
    const auto every_30ms = cpusage(three.ts, 0, milliseconds(10));
    ASSERT_EQ(every_30ms.size(), 2u);  // windows close at 30 and 60 ms
    for (const UsageSample& s : every_30ms) EXPECT_NEAR(s.interrupt_pct, 50.0, 1e-9);

    SeriesBuilder twenty{1};
    for (std::int64_t ms = 20; ms <= 60; ms += 20) twenty.sample(milliseconds(ms), {{0, 0, 5'000'000}});
    twenty.sample(milliseconds(65), {});
    const auto every_20ms = cpusage(twenty.ts, 0, milliseconds(10));
    ASSERT_EQ(every_20ms.size(), 3u);
    for (const UsageSample& s : every_20ms) EXPECT_NEAR(s.interrupt_pct, 25.0, 1e-9);

    EXPECT_THROW(cpusage(twenty.ts, 0, sim::Duration::zero()), std::invalid_argument);
}

TEST(CpuSage, FreezeInstantSampleNeverClosesAWindow) {
    // The freeze lands on a window boundary and carries busy time: it
    // still closes nothing.
    SeriesBuilder on_boundary{1};
    on_boundary.sample(milliseconds(10), {{0, 0, 1'000'000}});
    on_boundary.sample(milliseconds(20), {{0, 0, 2'000'000}});
    on_boundary.sample(milliseconds(30), {{0, 0, 9'000'000}});  // freeze instant
    const auto samples = cpusage(on_boundary.ts, 0, milliseconds(10));
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_NEAR(samples[0].interrupt_pct, 10.0, 1e-9);
    EXPECT_NEAR(samples[1].interrupt_pct, 20.0, 1e-9);

    // A tick and the freeze at the same instant: the tick closes the
    // window, the zero-length freeze interval adds nothing.
    SeriesBuilder doubled{1};
    doubled.sample(milliseconds(10), {{0, 0, 1'000'000}});
    doubled.sample(milliseconds(10), {});
    ASSERT_EQ(cpusage(doubled.ts, 0, milliseconds(10)).size(), 1u);

    // Only the freeze instant: no window closes.
    SeriesBuilder freeze_only{1};
    freeze_only.sample(milliseconds(10), {{0, 0, 1'000'000}});
    EXPECT_TRUE(cpusage(freeze_only.ts, 0, milliseconds(10)).empty());
    EXPECT_TRUE(cpusage(SeriesBuilder{1}.ts, 0, milliseconds(10)).empty());
}

UsageSample busy(double pct) {
    UsageSample s;
    s.user_pct = pct;
    s.idle_pct = 100.0 - pct;
    return s;
}

TEST(TrimUsage, FindsLongestBusyRun) {
    // idle: 100 100 20 30 100 10 10 10 100 -> longest run is [5..7].
    std::vector<UsageSample> samples{busy(0),  busy(0),  busy(80), busy(70), busy(0),
                                     busy(90), busy(90), busy(90), busy(0)};
    const auto result = trim_usage(samples, 95.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->run_start, 5u);
    EXPECT_EQ(result->run_length, 3u);
    EXPECT_NEAR(result->average.user_pct, 90.0, 1e-9);
    EXPECT_NEAR(result->average.idle_pct, 10.0, 1e-9);
}

TEST(TrimUsage, NoBusySamplesYieldsNothing) {
    std::vector<UsageSample> samples{busy(0), busy(1)};
    EXPECT_EQ(trim_usage(samples, 95.0), std::nullopt);
    EXPECT_EQ(trim_usage({}, 95.0), std::nullopt);
}

TEST(TrimUsage, TiesPreferEarlierRun) {
    std::vector<UsageSample> samples{busy(50), busy(50), busy(0), busy(60), busy(60)};
    const auto result = trim_usage(samples, 95.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->run_start, 0u);
    EXPECT_EQ(result->run_length, 2u);
}

TEST(TrimUsage, CustomLimitRespected) {
    // With limit 50, only samples with idle < 50 count.
    std::vector<UsageSample> samples{busy(40), busy(60), busy(70), busy(40)};
    const auto result = trim_usage(samples, 50.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->run_start, 1u);
    EXPECT_EQ(result->run_length, 2u);
}

TEST(TrimUsage, WholeRunBusy) {
    std::vector<UsageSample> samples{busy(99), busy(98), busy(97)};
    const auto result = trim_usage(samples, 95.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->run_length, 3u);
    EXPECT_NEAR(result->average.user_pct, 98.0, 1e-9);
}

}  // namespace
}  // namespace capbench::profiling
