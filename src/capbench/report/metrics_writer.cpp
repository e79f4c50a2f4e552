#include "capbench/report/metrics_writer.hpp"

#include "capbench/bpf/program_cache.hpp"
#include "capbench/core/capbench.hpp"
#include "capbench/profiling/trimusage.hpp"

namespace capbench::report {

JsonValue MetricsWriter::summary(const sim::SampleSet::Summary& s) {
    return JsonValue::Object{{"count", s.count}, {"min", s.min}, {"max", s.max},
                             {"mean", s.mean},   {"p50", s.p50}, {"p95", s.p95},
                             {"p99", s.p99}};
}

JsonValue MetricsWriter::app(const obs::AppMetrics& a) {
    JsonValue::Object drops;
    drops.reserve(obs::kDropSites.size());
    for (const obs::DropSite& site : obs::kDropSites) drops.emplace_back(site.name, a.*site.member);
    JsonValue::Object out;
    out.reserve(5);
    out.emplace_back("delivered", a.delivered);
    out.emplace_back("drops", std::move(drops));
    out.emplace_back("latency_ns", summary(a.latency_ns.summary()));
    out.emplace_back("enqueue_ns", summary(a.enqueue_ns.summary()));
    out.emplace_back("deliver_ns", summary(a.deliver_ns.summary()));
    return JsonValue{std::move(out)};
}

JsonValue MetricsWriter::sut(const obs::SutMetrics& s) {
    JsonValue out = JsonValue::object();
    out.set("name", s.name);
    out.set("offered", s.offered);
    out.set("ring_drops", s.ring_drops);
    out.set("backlog_drops", s.backlog_drops);
    out.set("nic_to_kernel_ns", summary(s.nic_to_kernel_ns.summary()));

    // cpusage + in-process trimusage (the thesis pipes cpusage output into
    // an awk script after the run; here the samples never leave memory).
    JsonValue cpu = JsonValue::object();
    cpu.set("samples", static_cast<std::uint64_t>(s.cpu_samples.size()));
    if (const auto trimmed = profiling::trim_usage(s.cpu_samples)) {
        JsonValue t = JsonValue::object();
        t.set("user_pct", trimmed->average.user_pct);
        t.set("system_pct", trimmed->average.system_pct);
        t.set("interrupt_pct", trimmed->average.interrupt_pct);
        t.set("idle_pct", trimmed->average.idle_pct);
        t.set("run_length", static_cast<std::uint64_t>(trimmed->run_length));
        t.set("run_start", static_cast<std::uint64_t>(trimmed->run_start));
        cpu.set("trimmed", std::move(t));
    } else {
        cpu.set("trimmed", JsonValue{});
    }
    out.set("cpu", std::move(cpu));

    JsonValue::Array apps;
    apps.reserve(s.apps.size());
    for (const auto& a : s.apps) apps.push_back(app(a));
    out.set("apps", std::move(apps));
    return out;
}

JsonValue MetricsWriter::point(double x, const obs::RunMetrics& m) {
    JsonValue out = JsonValue::object();
    out.set("x", x);
    out.set("generated", m.generated);
    JsonValue::Array suts;
    suts.reserve(m.suts.size());
    for (const auto& s : m.suts) suts.push_back(sut(s));
    out.set("suts", std::move(suts));
    JsonValue::Object counters;
    counters.reserve(m.counters.size());
    for (const auto& [name, value] : m.counters) counters.emplace_back(name, value);
    out.set("counters", std::move(counters));
    return out;
}

JsonValue MetricsWriter::document(const scenario::ScenarioResult& r) {
    JsonValue doc = JsonValue::object();
    doc.set("schema", kSchema);
    doc.set("capbench_version", kVersion);
    doc.set("id", r.id);

    JsonValue config = JsonValue::object();
    config.set("packets", r.packets);
    config.set("reps", r.reps);
    config.set("base_seed", r.base_seed);
    config.set("jobs", r.jobs);
    doc.set("config", std::move(config));

    JsonValue variants = JsonValue::array();
    if (!r.is_custom) {
        for (const auto& v : r.variants) {
            JsonValue variant = JsonValue::object();
            variant.set("name", v.name);
            variant.set("suffix", v.suffix);
            JsonValue points = JsonValue::array();
            for (const auto& p : v.points) {
                if (!p.result.metrics.enabled) continue;
                points.push_back(point(p.x, p.result.metrics));
            }
            variant.set("points", std::move(points));
            variants.push_back(std::move(variant));
        }
    }
    doc.set("variants", std::move(variants));
    return doc;
}

JsonValue MetricsWriter::suite(std::vector<JsonValue> documents,
                               const obs::TimeSeries* timeseries) {
    JsonValue doc = JsonValue::object();
    doc.set("schema", kSuiteSchema);
    doc.set("capbench_version", kVersion);
    // Overload episodes of the designated sampled run (--timeseries).
    if (timeseries != nullptr && timeseries->finalized) {
        JsonValue episodes = JsonValue::array();
        for (const obs::SutSeries& s : timeseries->suts) {
            for (const obs::OverloadEpisode& ep : s.episodes) {
                JsonValue e = JsonValue::object();
                e.set("sut", s.name);
                e.set("start_ns", ep.start_ns);
                e.set("end_ns", ep.end_ns);
                e.set("intervals", static_cast<std::uint64_t>(ep.intervals));
                e.set("dominant_site", ep.dominant_site);
                e.set("dropped", ep.dropped);
                e.set("peak_occupancy_pct", ep.peak_occupancy_pct);
                episodes.push_back(std::move(e));
            }
        }
        doc.set("overload_episodes", std::move(episodes));
    }
    // Process-wide filter-compile accounting.  The cache counts a miss
    // only for the install that won the insert race, so for a fixed
    // command line these totals are byte-stable across --jobs.
    const bpf::CacheStats cache = bpf::cache_stats();
    JsonValue bpf_cache = JsonValue::object();
    bpf_cache.set("lookups", cache.lookups);
    bpf_cache.set("hits", cache.hits);
    bpf_cache.set("misses", cache.misses);
    bpf_cache.set("jit_compiles", cache.jit_compiles);
    doc.set("bpf_cache", std::move(bpf_cache));
    JsonValue results = JsonValue::array();
    for (auto& d : documents) results.push_back(std::move(d));
    doc.set("results", std::move(results));
    return doc;
}

std::string MetricsWriter::serialize(const JsonValue& v) { return dump_json(v, 2) + "\n"; }

}  // namespace capbench::report
