// Tests for the scenario registry, the runner and the JSON results
// schema: a golden --list snapshot pins ids/captions to the thesis
// figure numbering, runner output is bit-identical across job counts,
// and every emitted document round-trips through the strict parser.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "capbench/report/writer.hpp"
#include "capbench/scenario/runner.hpp"

namespace capbench::scenario {
namespace {

using report::JsonValue;
using report::JsonWriter;

/// The golden snapshot: every registered scenario in presentation order.
/// If you add, rename or re-caption a figure, update this table *and*
/// check the id against the thesis numbering.
const std::vector<std::pair<std::string, std::string>> kGoldenList = {
    {"fig_4_1",
     "Packet size distribution of the (synthetic) 24h MWN trace; most frequent sizes at "
     "40, 52 and 1500 bytes"},
    {"fig_4_2", "Relative frequency of the top 20 packet sizes and their cumulative share"},
    {"fig_4_4",
     "Maximum achievable data rate [Mbit/s] of the enhanced pktgen by NIC and packet size "
     "(no inter-packet gap)"},
    {"fig_6_2", "default buffers, 1 app, no filter, no load"},
    {"fig_6_3", "increased buffers, 1 app, no filter, no load"},
    {"fig_6_4",
     "capture rate vs. buffer size at maximum data rate (buffer halved for FreeBSD's "
     "double buffer)"},
    {"fig_6_6", "50-instruction BPF filter, increased buffers"},
    {"fig_6_7", "2 capturing applications, SMP, increased buffers"},
    {"fig_6_8", "4 capturing applications, SMP, increased buffers"},
    {"fig_6_9", "8 capturing applications, SMP, increased buffers"},
    {"fig_6_10", "50 packet copies per packet, increased buffers"},
    {"fig_6_11", "zlib-level-3 compression per packet"},
    {"fig_6_12", "pipe whole packets to gzip -3, SMP"},
    {"fig_6_13", "maximum disk write speed and CPU usage per system (bonnie++)"},
    {"fig_6_14", "write first 76 bytes of every packet to disk"},
    {"fig_6_15", "mmap libpcap vs. stock, Linux systems"},
    {"fig_6_16", "Hyperthreading on/off, Intel systems, SMP"},
    {"fig_b_1", "FreeBSD 5.4 vs. 5.2.1, SMP, increased buffers"},
    {"fig_b_2", "25 packet copies per packet, increased buffers"},
    {"fig_b_3", "zlib-level-9 compression per packet, SMP"},
    {"ext_10gbe", "capture rate on a 10-Gigabit link (future work, Section 7.2)"},
    {"ext_distributed",
     "aggregate capture on a 10-Gigabit link: one sniffer vs. four behind a round-robin "
     "distributor (future work, Section 7.2)"},
    {"ext_zerocopy_bpf", "zero-copy (mmap) BPF vs. stock double buffer, FreeBSD"},
    {"ext_multiqueue",
     "multi-queue RSS receive: capture rate vs. queue/core count at overload (future "
     "work, Section 7.2)"},
    {"ext_filter_tiers",
     "BPF execution tiers: interpreter vs. native jit, fig-6.5-style filter cost sweep "
     "(host time)"},
    {"ext_disk_writer",
     "capture-to-disk writer pipeline: bring-ring hand-off vs. inline write, 76-byte "
     "header trace (ring depth x spill policy)"},
    {"ext_overload_pulse",
     "square-wave overload pulses: periodic 10x bursts over a steady base rate "
     "(interval-telemetry workload)"},
    {"ablation_livelock",
     "interrupt moderation on vs. off (one interrupt per packet), single CPU"},
};

TEST(Registry, GoldenListSnapshot) {
    std::size_t width = 0;
    for (const auto& [id, unused] : kGoldenList) width = std::max(width, id.size());
    std::string expected;
    for (const auto& [id, caption] : kGoldenList) {
        expected += id;
        expected.append(width + 2 - id.size(), ' ');
        expected += caption;
        expected += '\n';
    }
    EXPECT_EQ(list_text(), expected);
}

TEST(Registry, IdsAreUniqueAndFindable) {
    std::set<std::string> seen;
    for (const auto& s : registry()) {
        EXPECT_TRUE(seen.insert(s.id).second) << "duplicate id " << s.id;
        EXPECT_EQ(find_scenario(s.id), &s);
    }
    EXPECT_EQ(find_scenario("fig_9_9"), nullptr);
}

TEST(Registry, EveryScenarioIsWellFormed) {
    for (const auto& s : registry()) {
        SCOPED_TRACE(s.id);
        EXPECT_FALSE(s.caption.empty());
        if (s.is_custom()) {
            EXPECT_TRUE(s.variants.empty());
            EXPECT_FALSE(s.multi_app);
            continue;
        }
        ASSERT_FALSE(s.variants.empty());
        EXPECT_FALSE(s.sweep.empty());
        for (const auto& v : s.variants) {
            ASSERT_TRUE(static_cast<bool>(v.suts));
            EXPECT_FALSE(v.suts().empty());
        }
    }
}

TEST(Registry, BothModeFiguresExposeSingleAndDualVariants) {
    const Scenario* s = find_scenario("fig_6_2");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->variants.size(), 2u);
    EXPECT_EQ(s->variants[0].suffix, "(a)");
    EXPECT_EQ(s->variants[1].suffix, "(b)");
    for (const auto& sut : s->variants[0].suts()) EXPECT_EQ(sut.cores, 1);
    for (const auto& sut : s->variants[1].suts()) EXPECT_EQ(sut.cores, 2);
}

RunOptions tiny_options(int jobs) {
    RunOptions opts;
    opts.jobs = jobs;
    opts.packets = 2'000;
    opts.reps = 1;
    opts.gnuplot_env_fallback = false;  // keep tests hermetic
    return opts;
}

/// A shrunk copy of a registered sweep scenario (2 points).
Scenario shrunk(const std::string& id) {
    const Scenario* s = find_scenario(id);
    EXPECT_NE(s, nullptr);
    Scenario copy = *s;
    copy.sweep = {copy.sweep.front(), copy.sweep.back()};
    return copy;
}

TEST(Runner, ResultsAreBitIdenticalAcrossJobCounts) {
    const Scenario scenario = shrunk("fig_6_7");
    const ScenarioResult serial = run_scenario(scenario, tiny_options(1));
    const ScenarioResult parallel = run_scenario(scenario, tiny_options(4));
    // Everything except the jobs metadata must match byte for byte —
    // compare the serialized variants subtree.
    const std::string a = dump_json(JsonWriter::document(serial).at("variants"));
    const std::string b = dump_json(JsonWriter::document(parallel).at("variants"));
    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.jobs, 1);
    EXPECT_EQ(parallel.jobs, 4);
}

TEST(Runner, BufferAxisScenarioRunsAndExportsGnuplot) {
    Scenario scenario = shrunk("fig_6_4");
    const std::string dir = testing::TempDir() + "capbench_fig_6_4";
    std::filesystem::create_directories(dir);
    RunOptions opts = tiny_options(2);
    opts.gnuplot_dir = dir;
    std::ostringstream text;
    opts.out = &text;
    const ScenarioResult result = run_scenario(scenario, opts);

    EXPECT_EQ(result.x_label, "buffer kB");
    ASSERT_EQ(result.variants.size(), 2u);
    EXPECT_EQ(result.variants[0].points.size(), 2u);
    EXPECT_NE(text.str().find("=== fig_6_4(a) ==="), std::string::npos);
    EXPECT_NE(text.str().find("buffer kB"), std::string::npos);

    // Satellite: figures that used to bypass run_rate_figure now flow
    // through the shared gnuplot path too.
    std::ifstream data{dir + "/fig_6_4(a).dat"};
    ASSERT_TRUE(data.good());
    std::string header;
    std::getline(data, header);
    EXPECT_EQ(header.rfind("# x ", 0), 0u) << header;
    std::ifstream script{dir + "/fig_6_4(b).gp"};
    ASSERT_TRUE(script.good());
    std::stringstream gp;
    gp << script.rdbuf();
    EXPECT_NE(gp.str().find("Buffer size [kB]"), std::string::npos);
}

TEST(Runner, SweepDocumentMatchesSchemaAndRoundTrips) {
    const ScenarioResult result = run_scenario(shrunk("fig_6_7"), tiny_options(2));
    const JsonValue doc = JsonWriter::document(result);

    EXPECT_EQ(doc.at("schema").as_string(), JsonWriter::kSchema);
    EXPECT_EQ(doc.at("id").as_string(), "fig_6_7");
    EXPECT_FALSE(doc.at("caption").as_string().empty());
    EXPECT_EQ(doc.at("x_label").as_string(), "Mbit/s");
    EXPECT_TRUE(doc.at("multi_app").as_bool());
    EXPECT_EQ(doc.at("config").at("packets").as_int(), 2'000);
    EXPECT_EQ(doc.at("config").at("reps").as_int(), 1);
    EXPECT_EQ(doc.at("config").at("base_seed").as_int(), 1);
    EXPECT_EQ(doc.at("config").at("jobs").as_int(), 2);

    const auto& variants = doc.at("variants").as_array();
    ASSERT_EQ(variants.size(), 1u);
    const auto& points = variants[0].at("points").as_array();
    ASSERT_EQ(points.size(), 2u);
    for (const auto& point : points) {
        EXPECT_GT(point.at("generated").as_int(), 0);
        EXPECT_GT(point.at("offered_mbps").as_double(), 0.0);
        const auto& suts = point.at("suts").as_array();
        ASSERT_EQ(suts.size(), 4u);  // the Figure 2.4 roster
        for (const auto& sut : suts) {
            EXPECT_FALSE(sut.at("name").as_string().empty());
            EXPECT_EQ(sut.at("per_app_capture_pct").as_array().size(), 2u);  // 2 apps
            EXPECT_GE(sut.at("capture_worst_pct").as_double(), 0.0);
            EXPECT_LE(sut.at("capture_best_pct").as_double(), 100.0);
            EXPECT_GE(sut.at("cpu_pct").as_double(), 0.0);
            EXPECT_GE(sut.at("nic_ring_drops").as_int(), 0);
            EXPECT_GE(sut.at("backlog_drops").as_int(), 0);
            EXPECT_GE(sut.at("buffer_drops").as_int(), 0);
        }
    }

    // Round trip: serialize -> strict parse -> identical value.
    const JsonValue reparsed = report::parse_json(JsonWriter::serialize(doc));
    EXPECT_EQ(reparsed, doc);
}

TEST(Runner, CustomScenarioDocumentMatchesSchema) {
    const Scenario* s = find_scenario("fig_4_1");
    ASSERT_NE(s, nullptr);
    RunOptions opts = tiny_options(1);
    const ScenarioResult result = run_scenario(*s, opts);
    const JsonValue doc = JsonWriter::document(result);

    EXPECT_EQ(doc.at("schema").as_string(), JsonWriter::kSchema);
    EXPECT_EQ(doc.find("variants"), nullptr);
    const auto& tables = doc.at("tables").as_array();
    ASSERT_EQ(tables.size(), 2u);  // size bins + dominant peaks
    for (const auto& table : tables) {
        const auto& headers = table.at("headers").as_array();
        EXPECT_FALSE(headers.empty());
        for (const auto& row : table.at("rows").as_array())
            EXPECT_EQ(row.as_array().size(), headers.size());
    }
    EXPECT_NE(doc.at("notes").as_string().find("mean packet size"), std::string::npos);
    EXPECT_EQ(report::parse_json(JsonWriter::serialize(doc)), doc);
}

TEST(Runner, SuiteDocumentWrapsScenarioDocuments) {
    const ScenarioResult result = run_scenario(shrunk("ext_distributed"), tiny_options(2));
    const JsonValue suite =
        JsonWriter::suite({JsonWriter::document(result)});
    EXPECT_EQ(suite.at("schema").as_string(), JsonWriter::kSuiteSchema);
    const auto& results = suite.at("results").as_array();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].at("id").as_string(), "ext_distributed");
    // ext_distributed carries its two rosters as named variants.
    ASSERT_EQ(results[0].at("variants").as_array().size(), 2u);
    EXPECT_EQ(results[0].at("variants").as_array()[1].at("points").as_array()[0]
                  .at("suts").as_array().size(),
              4u);
}

}  // namespace
}  // namespace capbench::scenario
