#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <streambuf>
#include <string_view>

#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/program_cache.hpp"
#include "capbench/capture/rss.hpp"
#include "capbench/capture/tap.hpp"
#include "capbench/dist/builtin.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/harness/parallel.hpp"
#include "capbench/harness/testbed.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/obs/metrics.hpp"
#include "capbench/obs/observer.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/report/writer.hpp"

namespace perfbench {

using namespace capbench;

namespace {

// ---------------------------------------------------------------- spans

/// Spans (name, start, end, parent) kept in memory, written at the end.
class SpanLog {
public:
    int open(std::string name) {
        spans_.push_back(Span{std::move(name), now_seconds(), 0.0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void close(int id) {
        spans_[static_cast<std::size_t>(id)].end = now_seconds();
        current_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    [[nodiscard]] double duration(int id) const {
        const Span& s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

    /// Durations of the spans called `name` directly under span `parent`.
    [[nodiscard]] std::vector<double> durations(std::string_view name, int parent) const {
        std::vector<double> out;
        for (const Span& s : spans_)
            if (s.name == name && s.parent == parent) out.push_back(s.end - s.start);
        return out;
    }

    [[nodiscard]] double total(std::string_view name, int parent) const {
        const std::vector<double> d = durations(name, parent);
        return std::accumulate(d.begin(), d.end(), 0.0);
    }

    void write(const std::string& path) const {
        const double origin = spans_.empty() ? 0.0 : spans_.front().start;
        report::JsonValue list = report::JsonValue::array();
        for (const Span& s : spans_) {
            report::JsonValue span = report::JsonValue::object();
            span.set("name", s.name);
            span.set("start_s", s.start - origin);
            span.set("end_s", s.end - origin);
            span.set("parent", s.parent);
            list.push_back(std::move(span));
        }
        report::JsonValue doc = report::JsonValue::object();
        doc.set("schema", "perfbench.spans.v1");
        doc.set("spans", std::move(list));
        std::ofstream out{path};
        out << report::dump_json(doc) << '\n';
        if (!out) throw std::runtime_error("cannot write spans to '" + path + "'");
    }

private:
    struct Span {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };
    std::vector<Span> spans_;
    int current_ = -1;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    int id_;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------- sweep points

/// One sweep point with the exact configuration run_scenario and the
/// harness sweeps give it.
struct Point {
    const scenario::Scenario* scenario = nullptr;
    std::size_t variant = 0;
    double x = 0.0;
    std::vector<harness::SutConfig> suts;
    harness::RunConfig cfg;
};

/// Expands the workload into its sweep points the way run_scenario and
/// rate_sweep / buffer_sweep / queue_sweep do.  `timeseries` goes to the
/// designated point (first sweep scenario, first variant, last point).
std::vector<Point> expand_points(const Workload& w, std::uint64_t seed, const PassOptions& opts,
                                 obs::TimeSeries* timeseries = nullptr) {
    std::vector<Point> points;
    bool sampled = false;
    for (const std::string& id : w.scenarios) {
        const scenario::Scenario* s = scenario::find_scenario(id);
        if (s == nullptr) throw std::runtime_error("scenario '" + id + "' is not registered");
        if (s->is_custom())
            throw std::runtime_error("scenario '" + id + "' is a table, not a sweep");
        const bool sample_here = opts.timeseries && !sampled;
        sampled = sampled || sample_here;
        for (std::size_t vi = 0; vi < s->variants.size(); ++vi) {
            const scenario::Variant& v = s->variants[vi];
            const std::vector<harness::SutConfig> suts = v.suts();
            harness::RunConfig base;
            base.packets = w.packets;
            base.seed = seed;
            base.collect_metrics = opts.metrics;
            base.sample_interval =
                sample_here ? default_sample_interval() : sim::Duration::zero();
            if (v.tweak) v.tweak(base);
            for (std::size_t i = 0; i < s->sweep.size(); ++i) {
                Point p{s, vi, s->sweep[i], suts, base};
                switch (s->axis) {
                    case scenario::Axis::kRateMbps:
                        p.cfg.rate_mbps = p.x;
                        break;
                    case scenario::Axis::kBufferKb:
                        for (auto& sut : p.suts) {
                            const bool freebsd = sut.os->family == capture::OsFamily::kFreeBsd;
                            sut.buffer_bytes =
                                static_cast<std::uint64_t>(p.x) * 1024 / (freebsd ? 2 : 1);
                        }
                        p.cfg.rate_mbps = 0.0;
                        break;
                    case scenario::Axis::kQueues:
                        for (auto& sut : p.suts) {
                            sut.cores = static_cast<int>(p.x);
                            sut.nic.queues = static_cast<int>(p.x);
                        }
                        break;
                }
                if (sample_here && vi == 0 && i + 1 == s->sweep.size())
                    p.cfg.timeseries = timeseries;
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

/// The scenario results run_scenario would return for these points.
std::vector<scenario::ScenarioResult> assemble(const Workload& w, std::uint64_t seed,
                                               const std::vector<Point>& points,
                                               std::vector<harness::RunResult>& results) {
    std::vector<scenario::ScenarioResult> out;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        if (out.empty() || out.back().id != p.scenario->id) {
            scenario::ScenarioResult r;
            r.id = p.scenario->id;
            r.caption = p.scenario->caption;
            r.x_label = p.scenario->x_label();
            r.multi_app = p.scenario->multi_app;
            r.postscript = p.scenario->postscript;
            r.packets = w.packets;
            r.reps = 1;
            r.base_seed = seed;
            r.jobs = 1;
            out.push_back(std::move(r));
        }
        auto& variants = out.back().variants;
        if (variants.size() <= p.variant) {
            const scenario::Variant& v = p.scenario->variants[p.variant];
            variants.push_back(scenario::VariantResult{v.name, v.suffix, {}});
        }
        variants.back().points.push_back(scenario::PointResult{p.x, std::move(results[i])});
    }
    return out;
}

/// The Testbed configuration harness::run_once builds for a point.
harness::TestbedConfig testbed_config(const Point& p, obs::Observer* observer = nullptr) {
    const harness::RunConfig& c = p.cfg;
    harness::TestbedConfig tb;
    tb.observer = observer;
    tb.suts = p.suts;
    tb.gen.count = c.packets;
    tb.gen.rate_mbps = c.rate_mbps;
    tb.gen.seed = c.seed;
    tb.gen.full_bytes = c.full_bytes;
    tb.gen.flow_count = c.flow_count;
    tb.gen.burst_period_ns = c.burst_period.ns();
    tb.gen.burst_duration_ns = c.burst_duration.ns();
    tb.gen.burst_multiplier = c.burst_multiplier;
    if (c.use_mwn_dist) {
        tb.gen.size_dist.emplace(dist::mwn_trace_histogram());
        tb.gen.use_dist = true;
    } else {
        tb.gen.packet_size = c.fixed_size;
        tb.gen.use_dist = false;
    }
    tb.link_gbps = c.link_gbps;
    tb.distribute_round_robin = c.distribute_round_robin;
    tb.event_queue = c.event_queue;
    return tb;
}

/// Seconds to build a point's Testbed and start its SUTs.
double setup_seconds(const Point& p) {
    const double start = now_seconds();
    std::unique_ptr<obs::Observer> observer;
    if (p.cfg.collect_metrics) {
        observer = std::make_unique<obs::Observer>(nullptr);
        observer->reserve(p.cfg.packets);
    }
    harness::Testbed bed{testbed_config(p, observer.get())};
    bed.start_suts();
    return now_seconds() - start;
}

// ------------------------------------------------------------- replays

class NullSink final : public net::FrameSink {
public:
    void on_frame(const net::PacketPtr&) override { ++frames; }
    std::uint64_t frames = 0;
};

class KeepSink final : public net::FrameSink {
public:
    explicit KeepSink(std::size_t limit) : limit_(limit) {}
    void on_frame(const net::PacketPtr& packet) override {
        if (frames.size() < limit_) frames.push_back(packet);
    }
    std::vector<net::PacketPtr> frames;

private:
    std::size_t limit_;
};

/// A stream buffer that accepts and forgets every byte.
class DiscardBuf final : public std::streambuf {
protected:
    int_type overflow(int_type c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// Runs the point's generator configuration through a Link into `sink`;
/// returns wall seconds.
double generate(const Point& p, std::uint64_t count, net::FrameSink& sink) {
    harness::TestbedConfig tb = testbed_config(p);
    tb.gen.count = count;
    tb.gen.link_gbps = tb.link_gbps;
    sim::Simulator sim{tb.event_queue};
    net::Link link{sim, tb.link_gbps};
    link.attach(sink);
    pktgen::Generator gen{sim, link, tb.gen_nic, tb.gen};
    const double start = now_seconds();
    gen.start(sim::SimTime{});
    sim.run();
    return now_seconds() - start;
}

std::vector<net::PacketPtr> sample_frames(const Point& p, std::size_t count) {
    KeepSink sink{count};
    generate(p, count, sink);
    return std::move(sink.frames);
}

/// Push + pop cost of the default event-queue backend at `depth` pending
/// events, per operation.
double queue_ns_per_op(std::size_t depth) {
    constexpr std::uint64_t kOps = 400'000;
    sim::EventQueue queue;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    const auto next_delay = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return sim::nanoseconds(static_cast<std::int64_t>(1 + (lcg >> 44)));
    };
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
        queue.push(sim::SimTime{} + next_delay(), [] {});
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kOps; ++i) {
        const sim::SimTime now = queue.pop_and_run();
        queue.push(now + next_delay(), [] {});
    }
    return (now_seconds() - start) * 1e9 / (2.0 * kOps);
}

/// Event-queue depth samples and arena statistics summed over points.
struct Probe {
    double depth_sum = 0.0;
    std::uint64_t depth_samples = 0;
    net::PacketArena::Stats arena;
};

/// Runs a point's testbed through generation and drain, sampling the
/// event queue's pending depth every 64 events, and adds its arena
/// statistics to `acc`.  The switch count and every SUT's NIC ring drops
/// (counted as frames arrive) must equal run_once's `expected`: that
/// checks testbed_config still builds what run_once builds.
void probe(const Point& p, const harness::RunResult& expected, Probe& acc, Checks& checks) {
    harness::Testbed bed{testbed_config(p)};
    bed.start_suts();
    const std::uint64_t sent_before = bed.monitor_switch().egress_counters().packets;
    bool done = false;
    bed.generator().start(sim::SimTime{} + p.cfg.warmup, [&done] { done = true; });
    while (!done) {
        for (int i = 0; i < 64 && !done; ++i)
            if (!bed.sim().step()) throw std::logic_error("probe: generator stalled");
        acc.depth_sum += static_cast<double>(bed.sim().queue().size());
        ++acc.depth_samples;
    }
    bed.sim().run(bed.sim().now() + p.cfg.drain);
    bool same = bed.monitor_switch().egress_counters().packets - sent_before ==
                    expected.generated &&
                bed.suts().size() == expected.suts.size();
    for (std::size_t j = 0; same && j < expected.suts.size(); ++j)
        same = bed.suts()[j]->nic().ring_drops() == expected.suts[j].nic_ring_drops;
    checks.expect(same, p.scenario->id + " x=" + std::to_string(p.x) +
                            ": the replayed Testbed does not reproduce run_once");
    const net::PacketArena::Stats& s = bed.arena().stats();
    acc.arena.node_allocs += s.node_allocs;
    acc.arena.node_reuses += s.node_reuses;
    acc.arena.payload_allocs += s.payload_allocs;
    acc.arena.payload_reuses += s.payload_reuses;
    acc.arena.oversize_payloads += s.oversize_payloads;
}

struct BpfReplay {
    double ns_per_pkt = 0.0;
    double insns_per_pkt = 0.0;
};

BpfReplay bpf_replay(const Point& p, const harness::SutConfig& sut) {
    constexpr std::uint64_t kRuns = 400'000;
    capture::FilterRunner runner;
    runner.install(bpf::filter::compile_filter(sut.filter_expression, sut.snaplen));
    const std::vector<net::PacketPtr> frames = sample_frames(p, 4096);
    std::uint64_t insns = 0;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kRuns; ++i)
        insns += runner.run(*frames[i % frames.size()], sut.snaplen).insns;
    const double elapsed = now_seconds() - start;
    return BpfReplay{elapsed * 1e9 / kRuns,
                     static_cast<double>(insns) / static_cast<double>(kRuns)};
}

double rss_ns_per_pkt(const Point& p) {
    constexpr std::uint64_t kHashes = 2'000'000;
    const std::vector<net::PacketPtr> frames = sample_frames(p, 4096);
    std::uint32_t mix = 0;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kHashes; ++i)
        mix ^= capture::rss::flow_hash(*frames[i % frames.size()]);
    const double elapsed = now_seconds() - start;
    static std::atomic<std::uint32_t> sink;
    sink.store(mix, std::memory_order_relaxed);  // keeps the hashes observable
    return elapsed * 1e9 / kHashes;
}

double handoff_ns_per_record(const Point& p, const harness::SutConfig& sut) {
    constexpr std::uint64_t kRecords = 400'000;
    constexpr std::uint32_t kCaplen = 76;
    const std::vector<net::PacketPtr> frames = sample_frames(p, 1024);
    load::BringRing ring{sut.disk_writer.ring_slots};
    DiscardBuf discard;
    std::ostream out{&discard};
    pcap::FileWriter writer{out, sut.snaplen};
    std::size_t next = 0;
    const auto record = [&] {
        const net::PacketPtr& pkt = frames[next++ % frames.size()];
        return load::RecordRef{pkt, kCaplen, kCaplen, pkt->sent_at()};
    };
    while (ring.size() < ring.slots() / 2) ring.push(record());
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        ring.push(record());
        const load::RecordRef rec = ring.pop();
        writer.write(*rec.packet, rec.caplen, rec.timestamp);
    }
    return (now_seconds() - start) * 1e9 / kRecords;
}

bool has_writer(const harness::SutConfig& sut) {
    return sut.disk_writer.enabled && sut.app_load.disk_bytes_per_packet > 0;
}

bool ends_with(const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

double cold_filter_install_seconds(const Workload& w) {
    for (const Point& p : expand_points(w, kReferenceSeed, user_options(w))) {
        for (const auto& sut : p.suts) {
            if (sut.filter_expression.empty()) continue;
            const double start = now_seconds();
            capture::FilterRunner runner;
            runner.install(bpf::filter::compile_filter(sut.filter_expression, sut.snaplen));
            return now_seconds() - start;
        }
    }
    return 0.0;
}

LayerProfile profile_layers(const Workload& w, std::uint64_t seed, double budget_s,
                            double filter_install_s,
                            const std::string& spans_path) {
    LayerProfile prof;
    Checks& checks = prof.checks;
    const PassOptions user = user_options(w);
    PassOptions serial = user;
    serial.jobs = 1;

    // Rounds of untraced and traced serial passes, alternating so host
    // drift hits both alike; observed workloads add an observation-off and
    // a metrics-only pass per round.  Every pass is divided by the
    // calibration kernel timed just before it, and report time is left out
    // of the obs comparison so obs cost excludes serialization.
    std::vector<double> full_s, off_s, metrics_s, untraced_s, traced_s_per_cal;
    std::string serial_figures;
    const auto timed = [&](const PassOptions& o, std::vector<double>& sim_s) {
        const double cal = calibration_seconds();
        const double start = now_seconds();
        PassResult r = run_pass(w, seed, o);
        const double wall = now_seconds() - start;
        checks.merge(r.checks);
        sim_s.push_back((wall - r.report_s) / cal);
        if (serial_figures.empty()) serial_figures = std::move(r.figures);
        return wall / cal;
    };

    // A traced pass runs the user path point by point with a span around
    // every call into the scenario, harness and report layers.
    struct TracedPass {
        int root = -1;
        std::unique_ptr<obs::TimeSeries> timeseries = std::make_unique<obs::TimeSeries>();
        std::vector<Point> points;
        std::vector<harness::RunResult> results;
        std::uint64_t report_bytes = 0;
    };
    SpanLog log;
    std::vector<TracedPass> traced;
    const auto traced_pass = [&] {
        TracedPass tp;
        const double cal = calibration_seconds();
        tp.root = log.open("pass");
        {
            ScopedSpan span{log, "scenario.expand"};
            tp.points = expand_points(w, seed, serial, tp.timeseries.get());
        }
        tp.results.resize(tp.points.size());
        for (std::size_t i = 0; i < tp.points.size(); ++i) {
            ScopedSpan span{log, "harness.run_once"};
            tp.results[i] = harness::run_repeated(tp.points[i].suts, tp.points[i].cfg, 1);
        }
        std::vector<harness::RunResult> copies = tp.results;
        const std::vector<scenario::ScenarioResult> assembled =
            assemble(w, seed, tp.points, copies);
        Reports reports;
        {
            ScopedSpan span{log, "report.write"};
            reports = write_reports(w, assembled, user.metrics,
                                    user.timeseries ? tp.timeseries.get() : nullptr);
        }
        log.close(tp.root);
        tp.report_bytes = reports.bytes;
        traced_s_per_cal.push_back(log.duration(tp.root) / cal);
        checks.expect(reports.figures == serial_figures,
                      "the traced pass's figures document differs from the user path's");
        if (user.timeseries) check_timeseries(*tp.timeseries, checks);
        traced.push_back(std::move(tp));
    };

    const double rounds_start = now_seconds();
    while (traced.size() < 3 ||
           (traced.size() < 9 && now_seconds() - rounds_start < budget_s / 2)) {
        untraced_s.push_back(timed(serial, full_s));
        if (w.observed) {
            timed(PassOptions{false, false, 1}, off_s);
            timed(PassOptions{true, false, 1}, metrics_s);
        }
        traced_pass();
    }

    // The shares describe the traced pass of median wall time.
    std::sort(traced.begin(), traced.end(), [&log](const TracedPass& a, const TracedPass& b) {
        return log.duration(a.root) < log.duration(b.root);
    });
    TracedPass& chosen = traced[traced.size() / 2];
    const int pass_span = chosen.root;
    const double traced_s = log.duration(pass_span);
    const std::vector<Point>& points = chosen.points;
    std::vector<harness::RunResult>& results = chosen.results;
    const obs::TimeSeries& timeseries = *chosen.timeseries;
    const std::uint64_t report_bytes = chosen.report_bytes;

    // The drop ledger: every point's RunMetrics.  Observed workloads
    // already collected them; others rerun each point with metrics on,
    // which must not change any result.
    std::vector<obs::RunMetrics> ledger(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (user.metrics) {
            ledger[i] = results[i].metrics;
            continue;
        }
        harness::RunConfig cfg = points[i].cfg;
        cfg.collect_metrics = true;
        cfg.timeseries = nullptr;
        harness::RunResult observed = harness::run_repeated(points[i].suts, cfg, 1);
        checks.expect(report::JsonWriter::point(points[i].x, observed) ==
                          report::JsonWriter::point(points[i].x, results[i]),
                      "observation changed the results of " + points[i].scenario->id);
        ledger[i] = std::move(observed.metrics);
    }

    std::uint64_t events = 0, generated = 0, frames = 0, delivered = 0, app_offered = 0;
    std::uint64_t filter_runs = 0, rss_frames = 0, records = 0, spilled = 0;
    std::uint64_t pktgen_counted = 0, obs_samples = 0;
    std::uint64_t dispatches = 0, wakeups = 0, migrations = 0, kernel_items = 0;
    std::array<std::uint64_t, obs::kDropSites.size()> drops{};
    for (std::size_t i = 0; i < points.size(); ++i) {
        const obs::RunMetrics& m = ledger[i];
        events += results[i].events_executed;
        generated += results[i].generated;
        checks.expect(m.enabled && m.suts.size() == points[i].suts.size(),
                      "missing drop ledger for " + points[i].scenario->id);
        if (!m.enabled || m.suts.size() != points[i].suts.size()) continue;
        for (std::size_t j = 0; j < m.suts.size(); ++j) {
            const obs::SutMetrics& sm = m.suts[j];
            const harness::SutConfig& cfg = points[i].suts[j];
            frames += sm.offered;
            if (cfg.nic.queues > 1) rss_frames += sm.offered;
            if (user.metrics) obs_samples += sm.nic_to_kernel_ns.size() + sm.cpu_samples.size();
            for (std::size_t a = 0; a < sm.apps.size(); ++a) {
                const obs::AppMetrics& am = sm.apps[a];
                checks.expect(am.delivered + am.drops_total() == m.generated,
                              sm.name + " app " + std::to_string(a) +
                                  ": delivered + drops != generated");
                delivered += am.delivered;
                app_offered += m.generated;
                for (std::size_t d = 0; d < drops.size(); ++d)
                    drops[d] += am.*obs::kDropSites[d].member;
                if (!cfg.filter_expression.empty())
                    filter_runs += m.generated - am.drop_nic_ring - am.drop_backlog -
                                   am.drop_fanout;
                if (has_writer(cfg)) {
                    records += am.delivered + am.drop_disk_spill;
                    spilled += am.drop_disk_spill;
                }
                if (user.metrics)
                    obs_samples += am.latency_ns.size() + am.enqueue_ns.size() +
                                   am.deliver_ns.size();
            }
        }
        for (const auto& [name, value] : m.counters) {
            if (name == "pktgen.packets") pktgen_counted += value;
            if (ends_with(name, ".sched.dispatches")) dispatches += value;
            if (ends_with(name, ".sched.wakeups")) wakeups += value;
            if (ends_with(name, ".sched.migrations")) migrations += value;
            if (ends_with(name, ".sched.kernel_items")) kernel_items += value;
        }
    }
    checks.expect(pktgen_counted == generated,
                  "pktgen counted " + std::to_string(pktgen_counted) +
                      " packets, the switch " + std::to_string(generated));
    if (user.timeseries) obs_samples += timeseries.sample_count();

    // Parallel efficiency of the harness executor at the workload's jobs.
    const std::vector<double> point_s = log.durations("harness.run_once", pass_span);
    double parallel_eff = ratio(std::accumulate(point_s.begin(), point_s.end(), 0.0), traced_s);
    if (w.jobs > 1) {
        obs::TimeSeries parallel_ts;
        std::vector<Point> par = expand_points(w, seed, user, &parallel_ts);
        std::vector<double> par_s(par.size());
        const harness::ParallelExecutor exec{w.jobs};
        const double start = now_seconds();
        exec.parallel_for(par.size(), [&](std::size_t i) {
            const double t = now_seconds();
            (void)harness::run_repeated(par[i].suts, par[i].cfg, 1);
            par_s[i] = now_seconds() - t;
        });
        const double wall = now_seconds() - start;
        parallel_eff = ratio(std::accumulate(par_s.begin(), par_s.end(), 0.0), w.jobs * wall);
    }

    // Replays of single layers through their public functions.
    double harness_setup_s = 0.0;
    for (const Point& p : points) harness_setup_s += setup_seconds(p);
    Probe pr;
    for (std::size_t i = 0; i < points.size(); ++i) probe(points[i], results[i], pr, checks);
    const double mean_depth = ratio(pr.depth_sum, static_cast<double>(pr.depth_samples));
    const double queue_ns = queue_ns_per_op(static_cast<std::size_t>(mean_depth + 0.5));
    NullSink null_sink;
    constexpr std::uint64_t kGenPackets = 100'000;
    const double pktgen_ns = generate(points[0], kGenPackets, null_sink) * 1e9 / kGenPackets;
    checks.expect(null_sink.frames == kGenPackets, "pktgen replay lost frames");

    BpfReplay bpf;
    double rss_ns = 0.0, handoff_ns = 0.0;
    bool bpf_done = false, rss_done = false, load_done = false;
    for (const Point& p : points) {
        for (const auto& sut : p.suts) {
            if (!bpf_done && !sut.filter_expression.empty()) {
                bpf = bpf_replay(p, sut);
                bpf_done = true;
            }
            if (!rss_done && sut.nic.queues > 1) {
                rss_ns = rss_ns_per_pkt(p);
                rss_done = true;
            }
            if (!load_done && has_writer(sut)) {
                handoff_ns = handoff_ns_per_record(p, sut);
                load_done = true;
            }
        }
    }
    const bpf::CacheStats cache = bpf::cache_stats();

    // Shares of the traced pass.  Time inside run_once is split by the
    // replay estimates; what they leave is the event loop, hostsim
    // scheduling and capture-stack paths no replay isolates (run_other).
    const double scenario_s = log.total("scenario.expand", pass_span);
    const double run_s = log.total("harness.run_once", pass_span);
    const double report_s = log.total("report.write", pass_span);
    const double obs_s =
        w.observed ? std::max(0.0, run_s * (1.0 - ratio(median(off_s), median(full_s)))) : 0.0;
    const double est_queue = queue_ns * 1e-9 * 2.0 * static_cast<double>(events);
    const double est_pktgen = pktgen_ns * 1e-9 * static_cast<double>(generated);
    const double est_rss = rss_ns * 1e-9 * static_cast<double>(rss_frames);
    const double est_bpf = bpf.ns_per_pkt * 1e-9 * static_cast<double>(filter_runs);
    const double est_load = handoff_ns * 1e-9 * static_cast<double>(records);
    const double run_other =
        run_s - harness_setup_s - est_queue - est_pktgen - est_rss - est_bpf - est_load - obs_s;
    const double unattributed = traced_s - scenario_s - run_s - report_s;

    std::vector<double> sorted_points = point_s;
    std::sort(sorted_points.begin(), sorted_points.end());

    const auto arena_total = pr.arena.node_allocs + pr.arena.node_reuses +
                             pr.arena.payload_allocs + pr.arena.payload_reuses;
    auto& out = prof.metrics;
    const auto put = [&out](std::string name, double value, std::string unit) {
        out.emplace_back(std::move(name), std::pair{value, std::move(unit)});
    };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    put("sim.events", count(events), "count");
    put("sim.ns_per_event", ratio(run_s * 1e9, count(events)), "ns");
    put("sim.queue_ns_per_op", queue_ns, "ns");
    put("sim.queue_depth", mean_depth, "count");
    put("pktgen.ns_per_pkt", pktgen_ns, "ns");
    put("pktgen.pkts", count(generated), "count");
    put("net.arena_reuse_ratio",
        ratio(count(pr.arena.node_reuses + pr.arena.payload_reuses), count(arena_total)),
        "ratio");
    put("net.payload_allocs", count(pr.arena.payload_allocs), "count");
    put("capture.rss_ns_per_pkt", rss_ns, "ns");
    put("capture.frames", count(frames), "count");
    put("capture.delivered_ratio", ratio(count(delivered), count(app_offered)), "ratio");
    for (std::size_t d = 0; d < drops.size(); ++d)
        put(std::string("capture.drops.") + obs::kDropSites[d].name, count(drops[d]), "count");
    put("bpf.ns_per_pkt", bpf.ns_per_pkt, "ns");
    put("bpf.insns_per_pkt", bpf.insns_per_pkt, "count");
    put("bpf.install_s", filter_install_s, "s");
    put("bpf.cache_hit_ratio", ratio(count(cache.hits), count(cache.lookups)), "ratio");
    put("hostsim.dispatches", count(dispatches), "count");
    put("hostsim.wakeups", count(wakeups), "count");
    put("hostsim.migrations", count(migrations), "count");
    put("hostsim.kernel_items", count(kernel_items), "count");
    put("load.handoff_ns_per_record", handoff_ns, "ns");
    put("load.records", count(records), "count");
    put("load.spilled", count(spilled), "count");
    put("obs.overhead_frac",
        w.observed ? ratio(median(full_s) - median(off_s), median(off_s)) : 0.0, "ratio");
    put("obs.timeseries_frac",
        w.observed ? ratio(median(full_s) - median(metrics_s), median(full_s)) : 0.0, "ratio");
    put("obs.samples", count(obs_samples), "count");
    put("report.write_s", report_s, "s");
    put("report.bytes", count(report_bytes), "bytes");
    put("harness.setup_s", harness_setup_s, "s");
    put("harness.point_s.p50", median(point_s), "s");
    put("harness.point_s.max", sorted_points.empty() ? 0.0 : sorted_points.back(), "s");
    put("harness.parallel_eff", parallel_eff, "ratio");
    put("scenario.points", count(points.size()), "count");
    put("share.scenario", ratio(scenario_s, traced_s), "ratio");
    put("share.harness_setup", ratio(harness_setup_s, traced_s), "ratio");
    put("share.sim_queue", ratio(est_queue, traced_s), "ratio");
    put("share.pktgen", ratio(est_pktgen, traced_s), "ratio");
    put("share.capture_rss", ratio(est_rss, traced_s), "ratio");
    put("share.bpf", ratio(est_bpf, traced_s), "ratio");
    put("share.load", ratio(est_load, traced_s), "ratio");
    put("share.obs", ratio(obs_s, traced_s), "ratio");
    put("share.run_other", ratio(run_other, traced_s), "ratio");
    put("share.report", ratio(report_s, traced_s), "ratio");
    put("unattributed_frac", ratio(unattributed, traced_s), "ratio");
    // Tracing overhead: traced against untraced passes, both in
    // calibration units so host drift between them cancels.
    const double overhead_frac = ratio(median(traced_s_per_cal), median(untraced_s)) - 1.0;
    put("trace.overhead_s", traced_s * overhead_frac / (1.0 + overhead_frac), "s");
    put("trace.overhead_frac", overhead_frac, "ratio");

    // share.run_other is what the replay estimates leave of the run_once
    // spans: a negative share means they overran the time they split.
    for (const auto& [name, value] : out)
        if (name.rfind("share.", 0) == 0 || name == "unattributed_frac")
            checks.expect(value.first >= 0.0,
                          name + " is negative (" + std::to_string(value.first) + ")");

    if (!spans_path.empty()) log.write(spans_path);
    return prof;
}

}  // namespace perfbench
