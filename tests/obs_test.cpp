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

#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/driver.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/capture/nic.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/obs/observer.hpp"
#include "capbench/obs/registry.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/report/json.hpp"
#include "capbench/report/metrics_writer.hpp"
#include "capbench/sim/simulator.hpp"

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
    // decoded_insns counts the jitted program's instructions; the
    // interpreter tier registers no such counter.
    const bool jit_tier = bpf::effective_tier(bpf::exec_tier(), bpf::JitProgram::supported()) ==
                          bpf::ExecTier::kJit;
    EXPECT_EQ(decoded_insns,
              jit_tier ? bpf::filter::compile_filter(sut.filter_expression, sut.snaplen).size()
                       : 0u);
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

// ---- lifecycle stamps ------------------------------------------------------------
//
// Each capture stack is driven through plan/commit with hand-picked
// (arrival, hand-off) stamps at known sim times, then fetched at known
// times; every latency set must hold exactly the hand-computed values.

/// One observed endpoint on a two-CPU Opteron.  Times are sim ns.
template <typename Endpoint>
struct StampRig {
    sim::Simulator sim;
    hostsim::Machine machine{sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 2, false},
                             {}};
    obs::Observer observer;
    Endpoint endpoint;
    std::uint64_t next_id = 1;

    template <typename... Args>
    explicit StampRig(Args&&... args) : endpoint(machine, std::forward<Args>(args)...) {
        obs::SutObserver& sut = observer.add_sut("swan", {&endpoint.stats()});
        endpoint.set_observer(&sut.app(0));
    }

    /// Runs `fn` at sim time `t`.
    template <typename Fn>
    void at(std::int64_t t, Fn fn) {
        sim.schedule_at(sim::SimTime{} + sim::nanoseconds(t), std::move(fn));
        sim.run(sim::SimTime{} + sim::nanoseconds(t));
    }

    /// Plans and commits a `frame_len`-byte frame at `t` with the given
    /// NIC arrival and kernel hand-off stamps.
    void commit(std::int64_t t, std::int64_t arrival, std::int64_t handoff,
                std::uint32_t frame_len = 200) {
        at(t, [this, arrival, handoff, frame_len] {
            const auto p = std::make_shared<net::Packet>(next_id++, frame_len, sim.now());
            endpoint.plan(p);
            endpoint.commit(capture::CaptureRecord::of(p, false), arrival, handoff);
        });
    }

    /// Fetches at `t`; returns the number of records delivered.
    std::size_t fetch(std::int64_t t, std::size_t max = 1000) {
        std::size_t n = 0;
        at(t, [&] {
            if (auto batch = endpoint.fetch(max)) n = batch->packets.size();
        });
        return n;
    }

    obs::RunMetrics finalize() {
        obs::SutSnapshot snap;
        snap.frames_seen = endpoint.stats().kernel_seen;
        snap.apps = {endpoint.stats()};
        snap.disk_spills = {0};
        return observer.finalize({snap}, snap.frames_seen);
    }
};

/// Expects `set` to hold exactly the multiset `want`: the digests of sets
/// this small pin down every value.
void expect_samples(const sim::SampleSet& set, const std::vector<std::int64_t>& want,
                    const char* what) {
    sim::SampleSet expected;
    for (const std::int64_t x : want) expected.add(x);
    const sim::SampleSet::Summary got = set.summary();
    const sim::SampleSet::Summary exp = expected.summary();
    EXPECT_EQ(got.count, exp.count) << what;
    EXPECT_EQ(got.min, exp.min) << what;
    EXPECT_EQ(got.max, exp.max) << what;
    EXPECT_EQ(got.mean, exp.mean) << what;
    EXPECT_EQ(got.p50, exp.p50) << what;
    EXPECT_EQ(got.p95, exp.p95) << what;
    EXPECT_EQ(got.p99, exp.p99) << what;
}

TEST(ObsStamps, BsdBpfPairsStampsAcrossRotationAndTimeout) {
    // 1000-byte frames take 1020-byte slots: two fit in a 2048-byte half.
    StampRig<capture::BsdBpfDev> rig{capture::OsSpec::freebsd_5_4(), 2048, 1515};
    rig.endpoint.enable_read_timeout(sim::microseconds(20));
    rig.commit(1'000, 100, 400, 1000);
    rig.commit(2'000, 1'500, 1'900, 1000);
    rig.commit(3'000, 2'300, 2'950, 1000);  // rotates: frames 1-2 go to HOLD
    EXPECT_EQ(rig.fetch(5'000), 2u);
    // Frame 3 sits in STORE; an empty HOLD arms the 20 us read timeout,
    // whose rotation hands frame 3 over.
    EXPECT_EQ(rig.fetch(6'000), 0u);
    rig.at(30'000, [] {});
    rig.commit(31'000, 30'100, 30'500, 1000);  // lands in the fresh STORE
    EXPECT_EQ(rig.fetch(40'000), 1u);
    const obs::RunMetrics m = rig.finalize();
    const obs::AppMetrics& a = m.suts[0].apps[0];
    expect_samples(a.enqueue_ns, {1'000 - 400, 2'000 - 1'900, 3'000 - 2'950, 31'000 - 30'500},
                   "enqueue_ns");
    expect_samples(a.deliver_ns, {5'000 - 1'000, 5'000 - 2'000, 40'000 - 3'000}, "deliver_ns");
    expect_samples(a.latency_ns, {5'000 - 100, 5'000 - 1'500, 40'000 - 2'300}, "latency_ns");
    EXPECT_TRUE(m.suts[0].nic_to_kernel_ns.empty());
}

TEST(ObsStamps, LinuxSocketPairsStampsInQueueOrder) {
    StampRig<capture::LinuxPacketSocket> rig{capture::OsSpec::linux_2_6_11(), 1 << 20, 1515,
                                             nullptr};
    rig.commit(1'000, 10, 700);
    rig.commit(1'100, 20, 1'050);
    rig.commit(1'300, 30, 1'110);
    EXPECT_EQ(rig.fetch(2'000, 2), 2u);  // the third record stays queued
    rig.commit(2'500, 2'000, 2'400);
    EXPECT_EQ(rig.fetch(4'000), 2u);
    const obs::RunMetrics m = rig.finalize();
    const obs::AppMetrics& a = m.suts[0].apps[0];
    expect_samples(a.enqueue_ns, {300, 50, 190, 100}, "enqueue_ns");
    expect_samples(a.deliver_ns, {1'000, 900, 4'000 - 1'300, 4'000 - 2'500}, "deliver_ns");
    expect_samples(a.latency_ns, {1'990, 1'980, 3'970, 2'000}, "latency_ns");
}

TEST(ObsStamps, MmapRingPairsStampsAndSkipsDroppedRecords) {
    // 16 slots (the minimum); the 17th frame finds no slot and leaves no stamp.
    StampRig<capture::MmapRing> rig{capture::OsSpec::linux_2_6_11(), 4096, 1515, 2048};
    ASSERT_EQ(rig.endpoint.buffer_capacity(), 16u);
    std::vector<std::int64_t> enqueue, deliver, latency;
    for (std::int64_t i = 0; i < 17; ++i) {
        const std::int64_t t = 1'000 + 100 * i;
        rig.commit(t, 7 * i, t - 3 * i);
        if (i < 16) {
            enqueue.push_back(3 * i);
            deliver.push_back(10'000 - t);
            latency.push_back(10'000 - 7 * i);
        }
    }
    EXPECT_EQ(rig.endpoint.stats().dropped_buffer, 1u);
    EXPECT_EQ(rig.fetch(10'000, 16), 16u);
    const obs::RunMetrics m = rig.finalize();
    const obs::AppMetrics& a = m.suts[0].apps[0];
    expect_samples(a.enqueue_ns, enqueue, "enqueue_ns");
    expect_samples(a.deliver_ns, deliver, "deliver_ns");
    expect_samples(a.latency_ns, latency, "latency_ns");
}

TEST(ObsStamps, FrozenObserverKeepsTheFifoButMakesNoSamples) {
    StampRig<capture::MmapRing> rig{capture::OsSpec::linux_2_6_11(), 4096, 1515, 2048};
    rig.commit(1'000, 100, 900);
    rig.commit(2'000, 1'200, 1'800);
    rig.observer.freeze();
    rig.commit(3'000, 2'100, 2'900);
    EXPECT_EQ(rig.fetch(4'000), 3u);
    const obs::RunMetrics m = rig.finalize();  // the FIFO drained in step
    const obs::AppMetrics& a = m.suts[0].apps[0];
    expect_samples(a.enqueue_ns, {100, 200}, "enqueue_ns");
    EXPECT_TRUE(a.deliver_ns.empty());
    EXPECT_TRUE(a.latency_ns.empty());
}

TEST(ObsStamps, FinalizeThrowsWhenAnAppFifoDrifts) {
    StampRig<capture::MmapRing> rig{capture::OsSpec::linux_2_6_11(), 4096, 1515, 2048};
    rig.commit(1'000, 100, 900);
    rig.commit(2'000, 1'200, 1'800);
    // Delivered without the hooks: the FIFO keeps two stamps for packets
    // no longer in flight.
    rig.endpoint.set_observer(nullptr);
    EXPECT_EQ(rig.fetch(3'000), 2u);
    EXPECT_THROW(rig.finalize(), std::logic_error);
}

TEST(ObsStamps, FetchBeyondTheStampedRecordsThrows) {
    StampRig<capture::MmapRing> rig{capture::OsSpec::linux_2_6_11(), 4096, 1515, 2048};
    obs::AppObserver& app = rig.observer.sut(0).app(0);
    rig.endpoint.set_observer(nullptr);
    rig.commit(1'000, 100, 900);  // stored while unobserved: no stamp
    rig.endpoint.set_observer(&app);
    EXPECT_THROW((void)rig.endpoint.fetch(10), std::logic_error);
}

/// Records carry no packet id, so the NIC rig encodes frame `id` in its
/// length: kFrameBase + id bytes.
constexpr std::uint32_t kFrameBase = 500;

/// Records the stamps the driver hands each commit.
struct StampTap : capture::PacketTap {
    struct Commit {
        std::uint64_t id;
        std::int64_t arrival;
        std::int64_t handoff;
    };
    std::vector<Commit> commits;
    hostsim::Work plan(const net::PacketPtr&) override { return hostsim::Work{.cycles = 2000}; }
    void commit(const capture::CaptureRecord& r, std::int64_t arrival,
                std::int64_t handoff) override {
        commits.push_back({r.frame_len - kFrameBase, arrival, handoff});
    }
    void fanout_skip() override {}
};

struct NicRig {
    sim::Simulator sim;
    hostsim::Machine machine{sim, hostsim::MachineSpec{hostsim::ArchSpec::amd_opteron(), 2, false},
                             {}};
    capture::Driver driver{machine, capture::OsSpec::freebsd_5_4()};
    StampTap tap;
    capture::NicModel model;
    obs::Observer observer;
    std::unique_ptr<capture::Nic> nic;

    explicit NicRig(std::size_t ring_slots) {
        driver.attach(tap);
        model.ring_slots = ring_slots;
        nic = std::make_unique<capture::Nic>(machine, capture::OsSpec::freebsd_5_4(), model,
                                             driver);
        nic->set_observer(&observer.add_sut("swan", {}));
    }

    /// Frame `id` arrives at sim time 100 * id.
    void arrive(std::uint64_t first, std::uint64_t last) {
        for (std::uint64_t id = first; id <= last; ++id) {
            const auto t = sim::SimTime{} + sim::nanoseconds(static_cast<std::int64_t>(100 * id));
            sim.schedule_at(t, [this, id] {
                nic->on_frame(std::make_shared<net::Packet>(
                    id, kFrameBase + static_cast<std::uint32_t>(id), sim.now()));
            });
        }
    }
};

/// Checks that each commit carries frame `id`'s arrival at 100 * id and
/// that the NIC-to-kernel set holds exactly the commits' ring waits.
void expect_true_nic_stamps(const NicRig& rig, const obs::RunMetrics& m) {
    std::vector<std::int64_t> waits;
    for (const StampTap::Commit& c : rig.tap.commits) {
        EXPECT_EQ(c.arrival, static_cast<std::int64_t>(100 * c.id)) << c.id;
        EXPECT_GE(c.handoff, c.arrival) << c.id;
        waits.push_back(c.handoff - c.arrival);
    }
    expect_samples(m.suts[0].nic_to_kernel_ns, waits, "nic_to_kernel_ns");
}

TEST(ObsStamps, NicArrivalStampsTravelToTheCommitThroughRingDrops) {
    // Frames 100 ns apart overflow a four-slot ring; each committed record
    // must still carry its own arrival time.
    NicRig rig{4};
    rig.arrive(1, 40);
    rig.sim.run();
    ASSERT_GT(rig.nic->ring_drops(), 0u);
    ASSERT_EQ(rig.tap.commits.size() + rig.nic->ring_drops(), 40u);
    EXPECT_EQ(rig.nic->queue_ring_occupancy(0), 0u);
    expect_true_nic_stamps(rig, rig.observer.finalize({obs::SutSnapshot{}}, 40));
}

TEST(ObsStamps, ObserverAttachedMidRunSeesRingFramesTrueArrivals) {
    // Each ring slot holds its frame's arrival stamp, so frames that
    // entered the ring before the observer was attached still report
    // their true arrival.
    NicRig rig{64};
    rig.nic->set_observer(nullptr);
    rig.arrive(1, 3);
    rig.sim.run(sim::SimTime{} + sim::nanoseconds(300));
    ASSERT_EQ(rig.nic->queue_ring_occupancy(0), 3u);
    rig.nic->set_observer(&rig.observer.sut(0));
    rig.arrive(4, 5);
    rig.sim.run();
    ASSERT_EQ(rig.tap.commits.size(), 5u);
    expect_true_nic_stamps(rig, rig.observer.finalize({obs::SutSnapshot{}}, 5));
}

TEST(ObsStamps, ObserverDetachedBeforeServiceLeavesNoStaleNicStamps) {
    // Frames enter the ring observed, then are served without the hooks.
    // Their stamps left with the ring slots, so finalize finds nothing
    // outstanding and the commits still carry the true arrivals.
    NicRig rig{64};
    rig.arrive(1, 3);
    rig.sim.run(sim::SimTime{} + sim::nanoseconds(300));
    ASSERT_EQ(rig.nic->queue_ring_occupancy(0), 3u);
    rig.nic->set_observer(nullptr);
    rig.sim.run();
    EXPECT_EQ(rig.nic->queue_ring_occupancy(0), 0u);
    ASSERT_EQ(rig.tap.commits.size(), 3u);
    for (const StampTap::Commit& c : rig.tap.commits) {
        EXPECT_EQ(c.arrival, static_cast<std::int64_t>(100 * c.id)) << c.id;
    }
    obs::RunMetrics m;
    ASSERT_NO_THROW(m = rig.observer.finalize({obs::SutSnapshot{}}, 3));
    EXPECT_EQ(m.suts[0].nic_to_kernel_ns.size(), 0u);
}

}  // namespace
}  // namespace capbench
