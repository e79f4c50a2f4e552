// Integration tests for the testbed and measurement cycle.
#include <gtest/gtest.h>

#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/harness/report.hpp"

#include <sstream>

namespace capbench::harness {
namespace {

RunConfig small_run(double rate) {
    RunConfig cfg;
    cfg.packets = 8'000;
    cfg.rate_mbps = rate;
    return cfg;
}

TEST(StandardSuts, FourSniffersOfFigure24) {
    const auto suts = standard_suts();
    ASSERT_EQ(suts.size(), 4u);
    EXPECT_EQ(suts[0].name, "swan");
    EXPECT_EQ(suts[0].arch->name, "AMD Opteron 244");
    EXPECT_EQ(suts[0].os->name, "Linux 2.6.11");
    EXPECT_EQ(suts[2].name, "moorhen");
    EXPECT_EQ(suts[2].os->name, "FreeBSD 5.4");
    EXPECT_EQ(suts[3].name, "flamingo");
    EXPECT_EQ(suts[3].arch->name, "Intel Xeon 3.06GHz");
    EXPECT_THROW(standard_sut("penguin"), std::invalid_argument);
}

TEST(Measurement, LowRateCapturesEverythingEverywhere) {
    const auto result = run_once(standard_suts(), small_run(100.0));
    EXPECT_EQ(result.generated, 8'000u);
    EXPECT_NEAR(result.offered_mbps, 100.0, 3.0);
    ASSERT_EQ(result.suts.size(), 4u);
    for (const auto& sut : result.suts) {
        EXPECT_GT(sut.capture_avg_pct, 99.0) << sut.name;
        EXPECT_GT(sut.cpu_pct, 0.0) << sut.name;
        EXPECT_LT(sut.cpu_pct, 50.0) << sut.name;
    }
}

TEST(Measurement, GeneratedCountMatchesSwitchCounters) {
    const auto result = run_once({standard_sut("moorhen")}, small_run(300.0));
    EXPECT_EQ(result.generated, 8'000u);
}

TEST(Measurement, CaptureRateNeverExceedsHundredPercent) {
    for (const double rate : {50.0, 500.0, 0.0}) {
        const auto result = run_once(standard_suts(), small_run(rate));
        for (const auto& sut : result.suts) {
            for (const double pct : sut.per_app_capture_pct) {
                EXPECT_GE(pct, 0.0);
                EXPECT_LE(pct, 100.0);
            }
            EXPECT_LE(sut.capture_worst_pct, sut.capture_avg_pct);
            EXPECT_LE(sut.capture_avg_pct, sut.capture_best_pct);
        }
    }
}

TEST(Measurement, DeterministicForSameSeed) {
    const auto a = run_once(standard_suts(), small_run(400.0));
    const auto b = run_once(standard_suts(), small_run(400.0));
    for (std::size_t i = 0; i < a.suts.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.suts[i].capture_avg_pct, b.suts[i].capture_avg_pct);
        EXPECT_DOUBLE_EQ(a.suts[i].cpu_pct, b.suts[i].cpu_pct);
    }
}

TEST(Measurement, RepetitionsAverage) {
    const auto result = run_repeated({standard_sut("moorhen")}, small_run(200.0), 3);
    EXPECT_GT(result.suts[0].capture_avg_pct, 99.0);
    EXPECT_THROW(run_repeated({standard_sut("moorhen")}, small_run(200.0), 0),
                 std::invalid_argument);
}

TEST(Measurement, MultiAppProducesPerAppRates) {
    auto sut = standard_sut("moorhen");
    sut.app_count = 3;
    const auto result = run_once({sut}, small_run(100.0));
    EXPECT_EQ(result.suts[0].per_app_capture_pct.size(), 3u);
    // At low rate every application captures everything.
    for (const double pct : result.suts[0].per_app_capture_pct) EXPECT_GT(pct, 99.0);
}

TEST(Measurement, FilterExperimentRunsRealBpf) {
    auto suts = standard_suts();
    for (auto& sut : suts) sut.filter_expression = fig_6_5_filter_expression();
    RunConfig cfg = small_run(100.0);
    cfg.full_bytes = true;
    const auto result = run_once(suts, cfg);
    // The Figure 6.5 filter accepts every generated packet.
    for (const auto& sut : result.suts) EXPECT_GT(sut.capture_avg_pct, 99.0) << sut.name;
}

TEST(Measurement, RejectingFilterCapturesNothing) {
    auto sut = standard_sut("swan");
    sut.filter_expression = "tcp";  // generated traffic is UDP
    RunConfig cfg = small_run(100.0);
    cfg.full_bytes = true;
    const auto result = run_once({sut}, cfg);
    EXPECT_EQ(result.suts[0].capture_avg_pct, 0.0);
}

TEST(Measurement, MmapRequiresLinux) {
    auto sut = standard_sut("moorhen");
    sut.stack = StackKind::kMmap;
    EXPECT_THROW(run_once({sut}, small_run(100.0)), std::invalid_argument);
}

TEST(Measurement, HyperthreadingRequiresIntel) {
    auto sut = standard_sut("swan");
    sut.hyperthreading = true;
    EXPECT_THROW(run_once({sut}, small_run(100.0)), std::invalid_argument);
}

TEST(Measurement, FixedSizeWorkloadSupported) {
    RunConfig cfg = small_run(200.0);
    cfg.use_mwn_dist = false;
    cfg.fixed_size = 1500;
    const auto result = run_once({standard_sut("moorhen")}, cfg);
    EXPECT_GT(result.suts[0].capture_avg_pct, 99.0);
}

TEST(Experiment, RateGridMatchesThesisPlots) {
    const auto rates = default_rate_grid();
    ASSERT_EQ(rates.size(), 19u);
    EXPECT_EQ(rates.front(), 50.0);
    EXPECT_EQ(rates.back(), 950.0);
}

TEST(Experiment, BufferOverridesApplyPerOsFamily) {
    auto suts = standard_suts();
    apply_increased_buffers(suts);
    EXPECT_EQ(suts[0].buffer_bytes, 128ull * 1024 * 1024);  // swan (Linux)
    EXPECT_EQ(suts[2].buffer_bytes, 10ull * 1024 * 1024);   // moorhen (FreeBSD)
    apply_single_cpu(suts);
    for (const auto& sut : suts) EXPECT_EQ(sut.cores, 1);
}

TEST(Experiment, Fig65FilterExpressionCompilesTo39Terms) {
    const auto expr = fig_6_5_filter_expression();
    // 2 ether terms + not tcp + 19 sources + 19 destinations.
    std::size_t ands = 0;
    for (std::size_t pos = expr.find(" and "); pos != std::string::npos;
         pos = expr.find(" and ", pos + 1))
        ++ands;
    EXPECT_EQ(ands, 40u);
    EXPECT_NE(expr.find("not tcp"), std::string::npos);
    EXPECT_NE(expr.find("not ip src 10.11.12.13"), std::string::npos);
    EXPECT_NE(expr.find("not ip dst 190.99.12.31"), std::string::npos);
}

TEST(Report, SweepTableContainsAllSeries) {
    std::vector<PointResult> rows;
    rows.push_back(PointResult{100.0, run_once(standard_suts(), small_run(100.0))});
    std::ostringstream out;
    print_sweep(out, "Mbit/s", rows);
    const std::string text = out.str();
    for (const auto* name : {"swan", "snipe", "moorhen", "flamingo"}) {
        EXPECT_NE(text.find(std::string(name) + " cap%"), std::string::npos);
        EXPECT_NE(text.find(std::string(name) + " cpu%"), std::string::npos);
    }
    EXPECT_NE(text.find("100"), std::string::npos);
}

TEST(Report, InventoryListsConfiguration) {
    std::ostringstream out;
    print_sut_inventory(out, standard_suts());
    EXPECT_NE(out.str().find("AMD Opteron 244"), std::string::npos);
    EXPECT_NE(out.str().find("FreeBSD 5.4"), std::string::npos);
}

}  // namespace
}  // namespace capbench::harness
