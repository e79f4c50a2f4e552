// Interval time-series telemetry tests (ISSUE 10): Series storage, the
// conservation invariant, overload-episode alignment with the square-wave
// workload, and byte-identity of the rendered document across job counts,
// event-queue backends and BPF execution tiers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/report/timeseries_writer.hpp"
#include "capbench/scenario/runner.hpp"

namespace capbench {
namespace {

class ScopedEnv {
public:
    ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
        if (const char* old = std::getenv(name_.c_str())) {
            had_old_ = true;
            old_ = old;
        }
        if (value == nullptr)
            ::unsetenv(name_.c_str());
        else
            ::setenv(name_.c_str(), value, 1);
    }
    ~ScopedEnv() {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    std::string name_;
    bool had_old_ = false;
    std::string old_;
};

// ---- Series storage -----------------------------------------------------------

TEST(TimeseriesSeries, PushAtSumMaxAcrossChunks) {
    obs::Series s;
    const std::size_t n = obs::Series::kChunkValues * 2 + 5;
    std::int64_t expect_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        s.push(static_cast<std::int64_t>(i) - 3);  // negatives allowed (drain)
        expect_sum += static_cast<std::int64_t>(i) - 3;
    }
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.chunk_count(), 3u);
    EXPECT_EQ(s.at(0), -3);
    EXPECT_EQ(s.at(obs::Series::kChunkValues), static_cast<std::int64_t>(obs::Series::kChunkValues) - 3);
    EXPECT_EQ(s.at(n - 1), static_cast<std::int64_t>(n) - 4);
    EXPECT_EQ(s.sum(), expect_sum);
    EXPECT_EQ(s.max(), static_cast<std::int64_t>(n) - 4);
}

TEST(TimeseriesSeries, EmptySeriesSumsAndMaxesToZero) {
    const obs::Series s;
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.chunk_count(), 0u);
    EXPECT_EQ(s.sum(), 0);
    EXPECT_EQ(s.max(), 0);
}

// ---- measurement-cycle integration --------------------------------------------

/// An overloaded square-wave run on the weakest sniffer: the bursts
/// guarantee drops, the base rate guarantees recovery between them.
harness::RunConfig pulse_run(obs::TimeSeries* ts) {
    harness::RunConfig cfg;
    cfg.packets = 12'000;
    cfg.rate_mbps = 150.0;
    cfg.burst_period = sim::milliseconds(20);
    cfg.burst_duration = sim::milliseconds(5);
    cfg.burst_multiplier = 10.0;
    cfg.sample_interval = sim::microseconds(500);
    cfg.timeseries = ts;
    cfg.collect_metrics = true;
    return cfg;
}

TEST(Timeseries, SinkWithoutIntervalThrows) {
    obs::TimeSeries ts;
    harness::RunConfig cfg = pulse_run(&ts);
    cfg.sample_interval = sim::Duration::zero();
    EXPECT_THROW(harness::run_once({harness::standard_sut("swan")}, cfg),
                 std::invalid_argument);
}

TEST(Timeseries, IntervalWithoutSinkIsInert) {
    harness::RunConfig cfg = pulse_run(nullptr);
    const auto result = harness::run_once({harness::standard_sut("swan")}, cfg);
    EXPECT_GT(result.generated, 0u);
}

TEST(Timeseries, ConservationHoldsOnADroppingRun) {
    obs::TimeSeries ts;
    const auto result =
        harness::run_once({harness::standard_sut("swan")}, pulse_run(&ts));
    // finalize_against ran inside run_once and did not throw: every delta
    // column telescoped exactly.  Re-check the headline sums here.
    ASSERT_TRUE(ts.finalized);
    EXPECT_EQ(ts.generated_total, result.generated);
    EXPECT_EQ(static_cast<std::uint64_t>(ts.generated.sum()), result.generated);
    ASSERT_EQ(ts.suts.size(), 1u);
    const obs::SutSeries& s = ts.suts[0];
    ASSERT_EQ(s.apps.size(), 1u);
    const obs::TimeSeries::AppTotals& totals = ts.totals[0].apps[0];
    std::uint64_t accounted = totals.delivered;
    for (const std::uint64_t d : totals.drops) accounted += d;
    // nic_ring and backlog are mirrored per app, so the 7-bucket app sum
    // IS the whole identity.
    EXPECT_EQ(accounted, result.generated);
    EXPECT_EQ(static_cast<std::uint64_t>(s.apps[0].delivered.sum()), totals.delivered);
    // The run must actually have dropped somewhere for this test to bite.
    std::uint64_t dropped = 0;
    for (const std::uint64_t d : totals.drops) dropped += d;
    EXPECT_GT(dropped, 0u);
    // One classification value per sample, all within the enum.
    EXPECT_EQ(s.classification.size(), ts.sample_count());
    for (std::size_t k = 0; k < s.classification.size(); ++k) {
        EXPECT_GE(s.classification.at(k), 0);
        EXPECT_LE(s.classification.at(k), 2);
    }
}

TEST(Timeseries, EpisodesAlignWithTheBursts) {
    obs::TimeSeries ts;
    harness::RunConfig cfg = pulse_run(&ts);
    harness::run_once({harness::standard_sut("swan")}, cfg);
    const obs::SutSeries& s = ts.suts[0];
    ASSERT_GE(s.episodes.size(), 2u) << "square wave should cause repeated episodes";
    const std::int64_t period = cfg.burst_period.ns();
    const std::int64_t duration = cfg.burst_duration.ns();
    const std::int64_t warmup = cfg.warmup.ns();  // generation (burst phase 0) start
    for (const obs::OverloadEpisode& ep : s.episodes) {
        EXPECT_GT(ep.intervals, 0u);
        EXPECT_GT(ep.dropped, 0u);
        EXPECT_LE(ep.start_ns, ep.end_ns);
        EXPECT_STRNE(ep.dominant_site, "");
        // The episode must start inside a burst window (generous slack:
        // one interval early for the open-boundary sample, 2 ms late for
        // queues that overflow while draining the burst).
        const std::int64_t phase = ((ep.start_ns - warmup) % period + period) % period;
        const bool in_burst = phase <= duration + sim::milliseconds(2).ns() ||
                              phase >= period - cfg.sample_interval.ns();
        EXPECT_TRUE(in_burst) << "episode start " << ep.start_ns << " phase " << phase;
    }
}

TEST(Timeseries, SamplingDoesNotPerturbTheRun) {
    obs::TimeSeries ts;
    const auto sampled =
        harness::run_once({harness::standard_sut("swan")}, pulse_run(&ts));
    harness::RunConfig plain = pulse_run(nullptr);
    plain.sample_interval = sim::Duration::zero();
    const auto bare = harness::run_once({harness::standard_sut("swan")}, plain);
    ASSERT_EQ(sampled.suts.size(), bare.suts.size());
    EXPECT_EQ(sampled.generated, bare.generated);
    for (std::size_t i = 0; i < sampled.suts.size(); ++i) {
        EXPECT_DOUBLE_EQ(sampled.suts[i].capture_avg_pct, bare.suts[i].capture_avg_pct);
        EXPECT_EQ(sampled.suts[i].nic_ring_drops, bare.suts[i].nic_ring_drops);
        EXPECT_EQ(sampled.suts[i].buffer_drops, bare.suts[i].buffer_drops);
    }
}

TEST(Timeseries, RunRepeatedSamplesRepZeroOnly) {
    obs::TimeSeries ts;
    harness::RunConfig cfg = pulse_run(&ts);
    cfg.packets = 4'000;
    harness::run_repeated({harness::standard_sut("swan")}, cfg, 2);
    // One run's worth of samples, finalized against rep 0's metrics.
    EXPECT_TRUE(ts.finalized);
    EXPECT_GT(ts.sample_count(), 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(ts.generated.sum()), ts.generated_total);
}

// ---- document rendering -------------------------------------------------------

TEST(TimeseriesDoc, WriterRequiresFinalizedSeries) {
    const obs::TimeSeries ts;
    EXPECT_THROW((void)report::TimeseriesWriter::document(ts, "x"), std::logic_error);
}

TEST(TimeseriesDoc, ByteIdenticalAcrossBpfTiers) {
    const auto render_tier = [](const char* tier) {
        const ScopedEnv env{"CAPBENCH_BPF_TIER", tier};
        obs::TimeSeries ts;
        harness::RunConfig cfg = pulse_run(&ts);
        cfg.packets = 4'000;
        harness::SutConfig sut = harness::standard_sut("swan");
        sut.filter_expression = "udp";  // give the tiers a program to run
        harness::run_once({sut}, cfg);
        return report::TimeseriesWriter::serialize(
            report::TimeseriesWriter::document(ts, "pulse"));
    };
    const std::string interp = render_tier("interpreter");
    EXPECT_EQ(interp, render_tier("jit"));
}

TEST(TimeseriesDoc, ByteIdenticalAcrossJobsViaTheScenarioRunner) {
    const auto render_jobs = [](int jobs) {
        const scenario::Scenario* s = scenario::find_scenario("ext_overload_pulse");
        EXPECT_NE(s, nullptr);
        obs::TimeSeries ts;
        scenario::RunOptions opts;
        opts.jobs = jobs;
        opts.packets = 4'000;
        opts.reps = 1;
        opts.gnuplot_env_fallback = false;
        opts.timeseries = &ts;
        opts.sample_interval = sim::microseconds(500);
        scenario::run_scenario(*s, opts);
        return report::TimeseriesWriter::serialize(
            report::TimeseriesWriter::document(ts, s->id));
    };
    EXPECT_EQ(render_jobs(1), render_jobs(4));
}

}  // namespace
}  // namespace capbench
