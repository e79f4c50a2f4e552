#include "workload.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "capbench/harness/experiment.hpp"
#include "capbench/report/metrics_writer.hpp"
#include "capbench/report/timeseries_writer.hpp"
#include "capbench/report/writer.hpp"

namespace perfbench {

using namespace capbench;

const std::vector<Workload>& workloads() {
    // Packet counts put one pass near 0.2-0.4 s on a 4-vCPU x86-64 host,
    // so a 20 s run holds enough passes for a steady median.
    static const std::vector<Workload> all{
        {"classic_sweep", {"fig_6_2"}, 1, 4000, false},
        {"filter_bytes", {"fig_6_6"}, 1, 2500, false},
        {"multiapp_observed", {"fig_6_8"}, 2, 3000, true},
        {"rss_disk", {"ext_multiqueue", "ext_disk_writer"}, 1, 1500, false},
    };
    return all;
}

const Workload& find_workload(const std::string& name) {
    std::string known;
    for (const Workload& w : workloads()) {
        if (w.name == name) return w;
        known += (known.empty() ? "" : ", ") + w.name;
    }
    throw std::runtime_error("unknown workload '" + name + "' (known: " + known + ")");
}

void Checks::expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (failed == 0) first_failure = what;
    ++failed;
}

void Checks::merge(const Checks& other) {
    if (failed == 0 && other.failed != 0) first_failure = other.first_failure;
    attempted += other.attempted;
    failed += other.failed;
}

PassOptions user_options(const Workload& w) {
    return PassOptions{w.observed, w.observed, w.jobs};
}

sim::Duration default_sample_interval() { return sim::milliseconds(1); }

Reports write_reports(const Workload& w, const std::vector<scenario::ScenarioResult>& results,
                      bool metrics, const obs::TimeSeries* timeseries) {
    Reports out;
    std::vector<report::JsonValue> docs;
    for (const auto& r : results) docs.push_back(report::JsonWriter::document(r));
    out.figures = report::JsonWriter::serialize(report::JsonWriter::suite(std::move(docs)));
    out.bytes = out.figures.size();
    if (metrics) {
        std::vector<report::JsonValue> metric_docs;
        for (const auto& r : results) metric_docs.push_back(report::MetricsWriter::document(r));
        out.bytes += report::MetricsWriter::serialize(
                         report::MetricsWriter::suite(std::move(metric_docs), timeseries))
                         .size();
    }
    if (timeseries != nullptr)
        out.bytes += report::TimeseriesWriter::serialize(
                         report::TimeseriesWriter::document(*timeseries, w.scenarios.front()))
                         .size();
    return out;
}

namespace {

bool within_pct(double v) { return v >= 0.0 && v <= 100.0; }

void check_points(const scenario::ScenarioResult& r, std::uint64_t packets, Checks& checks) {
    for (const auto& v : r.variants) {
        for (const auto& p : v.points) {
            const std::string where = r.id + v.suffix + " x=" + std::to_string(p.x);
            checks.expect(p.result.generated == packets,
                          where + ": switch counted " + std::to_string(p.result.generated) +
                              " generated packets, expected " + std::to_string(packets));
            bool sane = !p.result.suts.empty();
            for (const auto& s : p.result.suts) {
                sane = sane && within_pct(s.capture_worst_pct) &&
                       within_pct(s.capture_best_pct) && within_pct(s.cpu_pct) &&
                       s.capture_worst_pct <= s.capture_avg_pct &&
                       s.capture_avg_pct <= s.capture_best_pct;
            }
            checks.expect(sane, where + ": capture/CPU percentages out of range");
        }
    }
}

}  // namespace

void check_timeseries(const obs::TimeSeries& ts, Checks& checks) {
    checks.expect(ts.finalized, "time series was not finalized");
    if (!ts.finalized) return;
    checks.expect(ts.generated.sum() == static_cast<std::int64_t>(ts.generated_total),
                  "time-series generated deltas do not sum to the run total");
    for (std::size_t i = 0; i < ts.suts.size(); ++i) {
        const obs::SutSeries& s = ts.suts[i];
        for (std::size_t a = 0; a < s.apps.size(); ++a) {
            const obs::AppSeries& app = s.apps[a];
            const obs::TimeSeries::AppTotals& t = ts.totals[i].apps[a];
            const std::int64_t sums[7] = {s.drop_nic_ring.sum(),   s.drop_backlog.sum(),
                                          app.drop_verdict.sum(),  app.drop_bpf_store.sum(),
                                          app.drop_fanout.sum(),   app.drop_disk_spill.sum(),
                                          app.drain.sum()};
            bool equal = app.delivered.sum() == static_cast<std::int64_t>(t.delivered);
            std::uint64_t accounted = t.delivered;
            for (std::size_t d = 0; d < 7; ++d) {
                equal = equal && sums[d] == static_cast<std::int64_t>(t.drops[d]);
                accounted += t.drops[d];
            }
            const std::string where = s.name + " app " + std::to_string(a);
            checks.expect(equal, where + ": time-series deltas do not sum to the run totals");
            checks.expect(accounted == ts.generated_total,
                          where + ": delivered + drops != generated in the time series");
        }
    }
}

PassResult run_pass(const Workload& w, std::uint64_t seed, const PassOptions& opts) {
    PassResult pass;
    scenario::RunOptions run_opts;
    run_opts.jobs = opts.jobs;
    run_opts.packets = w.packets;
    run_opts.reps = 1;
    run_opts.seed = seed;
    run_opts.metrics = opts.metrics;
    run_opts.gnuplot_env_fallback = false;

    // As capbench_figures: the time series samples the first sweep
    // scenario's designated run.
    obs::TimeSeries timeseries;
    bool sampled = false;
    std::vector<scenario::ScenarioResult> results;
    for (const std::string& id : w.scenarios) {
        const scenario::Scenario* s = scenario::find_scenario(id);
        if (s == nullptr) throw std::runtime_error("scenario '" + id + "' is not registered");
        run_opts.timeseries = nullptr;
        run_opts.sample_interval = sim::Duration::zero();
        if (opts.timeseries && !sampled && !s->is_custom()) {
            run_opts.timeseries = &timeseries;
            run_opts.sample_interval = default_sample_interval();
            sampled = true;
        }
        results.push_back(scenario::run_scenario(*s, run_opts));
    }

    const double report_start = now_seconds();
    pass.figures =
        write_reports(w, results, opts.metrics, sampled ? &timeseries : nullptr).figures;
    pass.report_s = now_seconds() - report_start;

    for (const auto& r : results) {
        check_points(r, w.packets, pass.checks);
        for (const auto& v : r.variants)
            for (const auto& p : v.points) pass.generated += p.result.generated;
    }
    if (sampled) check_timeseries(timeseries, pass.checks);
    return pass;
}

double calibration_seconds() {
    // A fixed event-loop-shaped kernel owned by the benchmark: a binary
    // heap of pending timestamps plus scattered read-modify-writes over a
    // 32 MiB table.  Of the table sizes tried (512 KiB, 4 MiB, 32 MiB),
    // this one's time tracked the simulator's through host load changes
    // most closely.
    constexpr std::size_t kTableWords = std::size_t{1} << 22;
    constexpr std::size_t kDepth = 2048;
    constexpr std::uint64_t kSteps = 300'000;
    static std::vector<std::uint64_t> table(kTableWords, 1);
    std::vector<std::uint64_t> heap;
    heap.reserve(kDepth + 1);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 17;
    };
    const double start = now_seconds();
    for (std::size_t i = 0; i < kDepth; ++i) {
        heap.push_back(next() & 0xffff);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const std::uint64_t t = heap.back();
        heap.pop_back();
        std::uint64_t& slot = table[(t ^ next()) & (kTableWords - 1)];
        slot += t;
        acc += slot;
        heap.push_back(t + 1 + (next() & 0xfff));
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
    const double elapsed = now_seconds() - start;
    table[acc & (kTableWords - 1)] ^= 1;  // keeps the loop's result live
    return elapsed;
}

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
    // VmHWM belongs to this program's address space; ru_maxrss would also
    // carry the high-water mark of the process that forked it.
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double now_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace perfbench
