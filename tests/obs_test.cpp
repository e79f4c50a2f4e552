// Observability layer tests (ISSUE 5): counter registry, trace sink /
// Chrome JSON export, the drop attribution, packet-lifecycle metrics and
// their invariants.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "capbench/bpf/decoded.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/obs/observer.hpp"
#include "capbench/obs/registry.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/report/json.hpp"
#include "capbench/report/metrics_writer.hpp"

namespace capbench {
namespace {

// ---- registry -----------------------------------------------------------------

TEST(ObsRegistry, ViewsSnapshotInRegistrationOrder) {
    obs::Registry reg;
    std::uint64_t packets = 0;
    std::uint64_t dispatches = 7;
    reg.add("pktgen.packets", packets);
    reg.add("sched.dispatches", dispatches);
    EXPECT_EQ(reg.size(), 2u);
    // A view reads the component's count when the snapshot is taken.
    packets += 42;

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // Snapshot preserves registration order, not lexicographic order.
    EXPECT_EQ(snap[0].first, "pktgen.packets");
    EXPECT_EQ(snap[0].second, 42u);
    EXPECT_EQ(snap[1].first, "sched.dispatches");
    EXPECT_EQ(snap[1].second, 7u);
}

TEST(ObsRegistry, CounterAddressesSurviveGrowth) {
    obs::Registry reg;
    std::uint64_t first = 0;
    std::vector<std::uint64_t> others(1000);
    reg.add("first", first);
    for (std::size_t i = 0; i < others.size(); ++i)
        reg.add("c" + std::to_string(i), others[i]);
    ++first;
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1001u);
    EXPECT_EQ(snap.front().first, "first");
    EXPECT_EQ(snap.front().second, 1u);
}

TEST(ObsRegistry, RepeatedSutNameIsRejected) {
    // A second SUT under a registered name would repeat every one of its
    // counter names; add_sut refuses it before registering anything.
    obs::Observer observer;
    const capture::CaptureStats stats;
    (void)observer.add_sut("swan", {&stats});
    const std::size_t views = observer.registry().size();
    EXPECT_THROW((void)observer.add_sut("swan", {&stats}), std::invalid_argument);
    EXPECT_EQ(observer.sut_count(), 1u);
    EXPECT_EQ(observer.registry().size(), views);
    (void)observer.add_sut("snipe", {&stats});
    EXPECT_EQ(observer.sut_count(), 2u);
}

// ---- trace sink ---------------------------------------------------------------

TEST(ObsTrace, RecordsEventsInOrderAcrossChunks) {
    obs::TraceSink sink;
    const char* name = sink.intern("work");
    const std::size_t n = obs::TraceSink::kChunkEvents * 2 + 17;
    for (std::size_t i = 0; i < n; ++i)
        sink.counter(1, 2, name, sim::SimTime{static_cast<std::int64_t>(i)},
                     static_cast<std::int64_t>(i));
    EXPECT_EQ(sink.event_count(), n);
    EXPECT_EQ(sink.chunk_count(), 3u);
    std::int64_t expect = 0;
    sink.for_each([&](const obs::TraceEvent& e) {
        EXPECT_EQ(e.value, expect);
        EXPECT_EQ(e.ts_ns, expect);
        ++expect;
    });
    EXPECT_EQ(expect, static_cast<std::int64_t>(n));
}

TEST(ObsTrace, InternReturnsStablePointerPerString) {
    obs::TraceSink sink;
    const char* a = sink.intern("irq");
    const char* b = sink.intern(std::string("ir") + "q");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "irq");
    EXPECT_NE(sink.intern("other"), a);
}

TEST(ObsTrace, ChromeJsonParsesAndRendersExactMicroseconds) {
    obs::TraceSink sink;
    sink.set_process_name(1, "sut:swan");
    sink.set_thread_name(1, obs::kKernelTid, "kernel");
    // 1,234,567 ns = 1234.567 µs — must render exactly, not via doubles.
    sink.complete(1, obs::kKernelTid, sink.intern("slice"), sink.intern("system"),
                  sim::SimTime{1'234'567}, sim::SimTime{2'000'000});
    sink.instant(1, obs::kNicTid, sink.intern("irq"), sink.intern("irq"),
                 sim::SimTime{5'000});
    sink.counter(1, obs::kNicTid, sink.intern("ring"), sim::SimTime{6'000}, 3);

    std::ostringstream os;
    sink.write_chrome_json(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"ts\":1234.567"), std::string::npos) << text;
    EXPECT_NE(text.find("\"dur\":765.433"), std::string::npos) << text;

    const report::JsonValue doc = report::parse_json(text);
    const auto& events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 5u);  // 2 metadata + 3 events
    EXPECT_EQ(events[0].at("ph").as_string(), "M");
    EXPECT_EQ(events[0].at("name").as_string(), "process_name");
    EXPECT_EQ(events[0].at("args").at("name").as_string(), "sut:swan");
    const auto& slice = events[2];
    EXPECT_EQ(slice.at("ph").as_string(), "X");
    EXPECT_EQ(slice.at("cat").as_string(), "system");
    const auto& instant = events[3];
    EXPECT_EQ(instant.at("ph").as_string(), "i");
    EXPECT_EQ(instant.at("s").as_string(), "t");
    const auto& counter = events[4];
    EXPECT_EQ(counter.at("ph").as_string(), "C");
    EXPECT_EQ(counter.at("args").at("value").as_int(), 3);
}

TEST(ObsTrace, EscapesControlCharactersInNames) {
    obs::TraceSink sink;
    sink.instant(1, 2, sink.intern("a\"b\\c\nd"), nullptr, sim::SimTime{0});
    std::ostringstream os;
    sink.write_chrome_json(os);
    EXPECT_NO_THROW(report::parse_json(os.str()));
    EXPECT_NE(os.str().find("a\\\"b\\\\c\\nd"), std::string::npos);
}

// ---- lifecycle metrics through the measurement cycle --------------------------

harness::RunConfig metrics_run(double rate) {
    harness::RunConfig cfg;
    cfg.packets = 6'000;
    cfg.rate_mbps = rate;
    cfg.collect_metrics = true;
    return cfg;
}

// ---- the one drop attribution ------------------------------------------------

TEST(ObsAttribution, MapsEachCounterOntoItsDropSite) {
    capture::CaptureStats st;
    st.delivered = 800;
    st.dropped_filter = 40;
    st.filter_aborts = 5;  // a subset of dropped_filter, not a bucket
    st.dropped_buffer = 30;
    st.fanout_skipped = 20;
    const obs::AppCounts c = obs::attribute_drops(st, /*ring_drops=*/60, /*backlog_drops=*/25,
                                                  /*disk_spills=*/15, /*generated=*/1000);
    EXPECT_EQ(c.delivered, 785u);  // spilled records are not captured
    const std::map<std::string, std::uint64_t> want{
        {"nic_ring", 60}, {"backlog", 25},    {"verdict", 40}, {"bpf_store", 30},
        {"fanout", 20},   {"disk_spill", 15}, {"drain", 25}};
    std::uint64_t total = c.delivered;
    for (std::size_t d = 0; d < obs::kDropSites.size(); ++d) {
        EXPECT_EQ(c.drops[d], want.at(obs::kDropSites[d].name)) << obs::kDropSites[d].name;
        total += c.drops[d];
    }
    EXPECT_EQ(total, 1000u);
}

TEST(ObsAttribution, SpillsBeyondDeliveredThrow) {
    capture::CaptureStats st;
    st.delivered = 10;
    EXPECT_NO_THROW((void)obs::attribute_drops(st, 0, 0, 10, 100));
    EXPECT_THROW((void)obs::attribute_drops(st, 0, 0, 11, 100), std::logic_error);
}

TEST(ObsAttribution, BucketsBeyondGeneratedThrow) {
    capture::CaptureStats st;
    st.delivered = 50;
    st.dropped_buffer = 30;
    const obs::AppCounts exact = obs::attribute_drops(st, 15, 5, 0, 100);
    EXPECT_EQ(exact.drops[obs::drop_index("drain")], 0u);
    EXPECT_THROW((void)obs::attribute_drops(st, 15, 6, 0, 100), std::logic_error);
}

TEST(ObsMetrics, DisabledRunCollectsNothing) {
    harness::RunConfig cfg = metrics_run(300.0);
    cfg.collect_metrics = false;
    const auto result = harness::run_once(harness::standard_suts(), cfg);
    EXPECT_FALSE(result.metrics.enabled);
    EXPECT_TRUE(result.metrics.suts.empty());
}

TEST(ObsMetrics, DropAttributionSumsToGeneratedPerApp) {
    // Overload rate: exercises the ring/backlog/buffer drop sites too.
    for (const double rate : {200.0, 900.0}) {
        const auto result =
            harness::run_once(harness::standard_suts(), metrics_run(rate));
        ASSERT_TRUE(result.metrics.enabled);
        EXPECT_EQ(result.metrics.generated, result.generated);
        ASSERT_EQ(result.metrics.suts.size(), 4u);
        for (const auto& sut : result.metrics.suts) {
            EXPECT_EQ(sut.offered, result.generated) << sut.name;
            for (const auto& app : sut.apps) {
                EXPECT_EQ(app.delivered + app.drops_total(), result.metrics.generated)
                    << sut.name << " rate=" << rate;
                // Latency histogram covers exactly the delivered packets.
                EXPECT_EQ(app.latency_ns.size(), app.delivered) << sut.name;
            }
        }
    }
}

TEST(ObsMetrics, DeliveredMatchesHeadlineCaptureCounters) {
    const auto result = harness::run_once({harness::standard_sut("moorhen")},
                                          metrics_run(100.0));
    ASSERT_TRUE(result.metrics.enabled);
    // At 100 Mbit/s everything is captured; both layers must agree.
    EXPECT_EQ(result.metrics.suts[0].apps[0].delivered, result.metrics.generated);
    EXPECT_DOUBLE_EQ(result.suts[0].capture_avg_pct, 100.0);
}

TEST(ObsMetrics, CpusageSamplesFeedTrimusage) {
    // cpusage samples every 10 ms; the run's warmup, generation and drain
    // span over 200 ms of simulated time, well past five samples.
    const auto result =
        harness::run_once({harness::standard_sut("swan")}, metrics_run(400.0));
    ASSERT_TRUE(result.metrics.enabled);
    const auto& samples = result.metrics.suts[0].cpu_samples;
    EXPECT_GT(samples.size(), 5u);
    for (const auto& s : samples) {
        const double total = s.user_pct + s.system_pct + s.interrupt_pct + s.idle_pct;
        EXPECT_NEAR(total, 100.0, 1e-6);
    }
}

TEST(ObsMetrics, CountersIncludeSchedulerAndPktgen) {
    const auto result =
        harness::run_once({harness::standard_sut("swan")}, metrics_run(300.0));
    ASSERT_TRUE(result.metrics.enabled);
    std::uint64_t pktgen_packets = 0;
    bool saw_dispatches = false;
    for (const auto& [name, value] : result.metrics.counters) {
        if (name == "pktgen.packets") pktgen_packets = value;
        if (name == "swan.sched.dispatches") saw_dispatches = value > 0;
    }
    EXPECT_EQ(pktgen_packets, result.generated);
    EXPECT_TRUE(saw_dispatches);
}

TEST(ObsMetrics, ObservationDoesNotPerturbResults) {
    harness::RunConfig cfg = metrics_run(700.0);
    harness::RunConfig plain = cfg;
    plain.collect_metrics = false;
    const auto observed = harness::run_once(harness::standard_suts(), cfg);
    const auto bare = harness::run_once(harness::standard_suts(), plain);
    ASSERT_EQ(observed.suts.size(), bare.suts.size());
    for (std::size_t i = 0; i < observed.suts.size(); ++i) {
        EXPECT_DOUBLE_EQ(observed.suts[i].capture_avg_pct, bare.suts[i].capture_avg_pct);
        EXPECT_EQ(observed.suts[i].nic_ring_drops, bare.suts[i].nic_ring_drops);
        EXPECT_EQ(observed.suts[i].buffer_drops, bare.suts[i].buffer_drops);
    }
}

TEST(ObsMetrics, RepeatedRunsSumRawCounts) {
    const auto once = harness::run_once({harness::standard_sut("moorhen")},
                                        metrics_run(200.0));
    const auto thrice = harness::run_repeated({harness::standard_sut("moorhen")},
                                              metrics_run(200.0), 3);
    ASSERT_TRUE(thrice.metrics.enabled);
    // Headline counts are averaged; lifecycle metrics stay raw sums so the
    // per-app identity keeps holding exactly.
    EXPECT_EQ(thrice.generated, once.generated);
    EXPECT_EQ(thrice.metrics.generated, 3 * once.metrics.generated);
    for (const auto& sut : thrice.metrics.suts)
        for (const auto& app : sut.apps)
            EXPECT_EQ(app.delivered + app.drops_total(), thrice.metrics.generated);
}

TEST(ObsMetrics, RepeatedRunsSummarizeAfterMerging) {
    // run_repeated digests each latency set once every rep is merged: its
    // summaries must be those of the three reps' samples concatenated,
    // bit for bit, not a merge of per-rep digests.
    const std::vector<harness::SutConfig> suts = harness::standard_suts();
    const harness::RunConfig cfg = metrics_run(700.0);
    std::vector<harness::RunResult> reps;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
        harness::RunConfig c = cfg;
        c.seed = cfg.seed + rep * 7919;
        reps.push_back(harness::run_once(suts, c));
    }
    const auto concatenated = [&](const auto& pick) {
        sim::SampleSet all;
        for (const harness::RunResult& r : reps) all.append(pick(r.metrics));
        return all.summary();
    };
    const auto expect_same = [](const sim::SampleSet::Summary& got,
                                const sim::SampleSet::Summary& want, const std::string& where) {
        const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
        EXPECT_EQ(got.count, want.count) << where;
        EXPECT_EQ(bits(got.min), bits(want.min)) << where;
        EXPECT_EQ(bits(got.max), bits(want.max)) << where;
        EXPECT_EQ(bits(got.mean), bits(want.mean)) << where;
        EXPECT_EQ(bits(got.p50), bits(want.p50)) << where;
        EXPECT_EQ(bits(got.p95), bits(want.p95)) << where;
        EXPECT_EQ(bits(got.p99), bits(want.p99)) << where;
    };

    const auto thrice = harness::run_repeated(suts, cfg, 3);
    ASSERT_TRUE(thrice.metrics.enabled);
    ASSERT_EQ(thrice.metrics.suts.size(), suts.size());
    for (std::size_t s = 0; s < suts.size(); ++s) {
        const obs::SutMetrics& sut = thrice.metrics.suts[s];
        expect_same(sut.nic_to_kernel_ns.summary(),
                    concatenated([&](const obs::RunMetrics& m) -> const sim::SampleSet& {
                        return m.suts[s].nic_to_kernel_ns;
                    }),
                    sut.name + " nic_to_kernel_ns");
        EXPECT_GT(sut.nic_to_kernel_ns.size(), 0u) << sut.name;
        for (std::size_t a = 0; a < sut.apps.size(); ++a) {
            const obs::AppMetrics& app = sut.apps[a];
            const std::string where = sut.name + " app " + std::to_string(a);
            using Set = sim::SampleSet obs::AppMetrics::*;
            for (const auto& [name, member] :
                 {std::pair<const char*, Set>{"latency_ns", &obs::AppMetrics::latency_ns},
                  {"enqueue_ns", &obs::AppMetrics::enqueue_ns},
                  {"deliver_ns", &obs::AppMetrics::deliver_ns}}) {
                expect_same((app.*member).summary(),
                            concatenated([&](const obs::RunMetrics& m) -> const sim::SampleSet& {
                                return m.suts[s].apps[a].*member;
                            }),
                            where + " " + name);
            }
            // The digests keep their counts: one sample per delivery.
            // (enqueue_ns also counts packets still buffered at stop.)
            EXPECT_GT(app.delivered, 0u) << where;
            EXPECT_EQ(app.latency_ns.size(), app.delivered) << where;
            EXPECT_EQ(app.deliver_ns.size(), app.delivered) << where;
            EXPECT_GE(app.enqueue_ns.size(), app.delivered) << where;
        }
    }
}

// ---- timeline through the measurement cycle -----------------------------------

TEST(ObsTraceRun, MeasurementEmitsLoadableTimeline) {
    obs::TraceSink sink;
    harness::RunConfig cfg = metrics_run(600.0);
    cfg.collect_metrics = false;  // trace alone must imply observation
    cfg.trace = &sink;
    const auto result = harness::run_once(harness::standard_suts(), cfg);
    EXPECT_TRUE(result.metrics.enabled);
    EXPECT_GT(sink.event_count(), 1000u);

    std::ostringstream os;
    sink.write_chrome_json(os);
    const report::JsonValue doc = report::parse_json(os.str());
    const auto& events = doc.at("traceEvents").as_array();
    bool names[4] = {false, false, false, false};
    for (const auto& e : events) {
        if (e.at("ph").as_string() != "M") continue;
        if (e.at("name").as_string() != "process_name") continue;
        const std::string& n = e.at("args").at("name").as_string();
        if (n == "sut:swan") names[0] = true;
        if (n == "sut:snipe") names[1] = true;
        if (n == "sut:moorhen") names[2] = true;
        if (n == "sut:flamingo") names[3] = true;
    }
    for (const bool seen : names) EXPECT_TRUE(seen);
}

TEST(ObsTraceRun, TimelineIsDeterministic) {
    const auto render = [] {
        obs::TraceSink sink;
        harness::RunConfig cfg = metrics_run(500.0);
        cfg.trace = &sink;
        harness::run_once(harness::standard_suts(), cfg);
        std::ostringstream os;
        sink.write_chrome_json(os);
        return os.str();
    };
    EXPECT_EQ(render(), render());
}

// ---- metrics document ---------------------------------------------------------

TEST(ObsMetricsDoc, WriterEmitsSchemaAndDropBuckets) {
    const auto result = harness::run_once({harness::standard_sut("snipe")},
                                          metrics_run(900.0));
    const auto point = report::MetricsWriter::point(900.0, result.metrics);
    const auto parsed = report::parse_json(report::MetricsWriter::serialize(point));
    EXPECT_EQ(parsed.at("generated").as_int(),
              static_cast<std::int64_t>(result.generated));
    const auto& sut = parsed.at("suts").as_array().at(0);
    EXPECT_EQ(sut.at("name").as_string(), "snipe");
    const auto& app = sut.at("apps").as_array().at(0);
    const auto& drops = app.at("drops");
    std::int64_t total = app.at("delivered").as_int();
    for (const obs::DropSite& site : obs::kDropSites) total += drops.at(site.name).as_int();
    EXPECT_EQ(total, static_cast<std::int64_t>(result.generated));
    EXPECT_TRUE(sut.at("cpu").at("samples").as_int() > 0);
}

// ---- BPF filter-install counters and cache accounting -------------------------

TEST(ObsBpfCounters, FilterInstallRegistersPerAppCounters) {
    harness::SutConfig sut = harness::standard_sut("swan");
    sut.filter_expression = harness::fig_6_5_filter_expression();
    harness::RunConfig cfg = metrics_run(100.0);
    cfg.packets = 500;
    const auto result = harness::run_once({sut}, cfg);
    ASSERT_TRUE(result.metrics.enabled);

    std::uint64_t installs = 0;
    std::uint64_t decoded_insns = 0;
    bool saw_installs = false;
    for (const auto& [name, value] : result.metrics.counters) {
        if (name == "bpf.swan.app0.filter_installs") {
            installs = value;
            saw_installs = true;
        }
        if (name == "bpf.swan.app0.decoded_insns") decoded_insns = value;
    }
    ASSERT_TRUE(saw_installs);
    EXPECT_EQ(installs, 1u);
    if (bpf::exec_tier() != bpf::ExecTier::kInterpreter) {
        EXPECT_GT(decoded_insns, 0u);
    }
}

TEST(ObsBpfCounters, MetricsSuiteCarriesProcessCacheStats) {
    const auto doc = report::MetricsWriter::suite({});
    const auto parsed = report::parse_json(report::MetricsWriter::serialize(doc));
    const auto& cache = parsed.at("bpf_cache");
    const std::int64_t lookups = cache.at("lookups").as_int();
    const std::int64_t hits = cache.at("hits").as_int();
    const std::int64_t misses = cache.at("misses").as_int();
    EXPECT_EQ(lookups, hits + misses);  // every lookup is hit or miss
    EXPECT_GE(cache.at("jit_compiles").as_int(), 0);
}

}  // namespace
}  // namespace capbench
