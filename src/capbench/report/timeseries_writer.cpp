#include "capbench/report/timeseries_writer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "capbench/core/capbench.hpp"
#include "capbench/obs/metrics.hpp"

namespace capbench::report {

namespace {

JsonValue series_array(const obs::Series& s) {
    JsonValue::Array out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) out.emplace_back(s.at(i));
    return JsonValue{std::move(out)};
}

/// A monotone counter column: the frozen aggregate plus its deltas.
JsonValue counter(std::uint64_t total, const obs::Series& deltas) {
    JsonValue::Object out;
    out.reserve(2);
    out.emplace_back("total", total);
    out.emplace_back("deltas", series_array(deltas));
    return JsonValue{std::move(out)};
}

const char* class_name(std::int64_t cls) {
    switch (static_cast<obs::IntervalClass>(cls)) {
        case obs::IntervalClass::kHealthy: return "healthy";
        case obs::IntervalClass::kSaturated: return "saturated";
        case obs::IntervalClass::kDropping: return "dropping";
    }
    return "healthy";
}

JsonValue episode(const obs::OverloadEpisode& ep) {
    JsonValue out = JsonValue::object();
    out.set("start_ns", ep.start_ns);
    out.set("end_ns", ep.end_ns);
    out.set("first_interval", static_cast<std::uint64_t>(ep.first_interval));
    out.set("intervals", static_cast<std::uint64_t>(ep.intervals));
    out.set("dominant_site", ep.dominant_site);
    out.set("dropped", ep.dropped);
    out.set("peak_occupancy_pct", ep.peak_occupancy_pct);
    return out;
}

JsonValue sut(const obs::SutSeries& s, const obs::TimeSeries::SutTotals& totals) {
    JsonValue out = JsonValue::object();
    out.set("name", s.name);
    out.set("nic_ring_capacity", s.nic_ring_capacity);

    // SUT-level drop buckets.  The aggregates are mirrored into every
    // app's AppMetrics, so app 0's totals are THE totals.
    JsonValue drops = JsonValue::object();
    drops.set(obs::kDropSites[0].name, counter(totals.apps[0].drops[0], s.drop_nic_ring));
    drops.set(obs::kDropSites[1].name, counter(totals.apps[0].drops[1], s.drop_backlog));
    out.set("drops", std::move(drops));

    JsonValue queues = JsonValue::array();
    for (const obs::QueueSeries& q : s.queues) {
        JsonValue queue = JsonValue::object();
        queue.set("ring_occupancy", series_array(q.ring_occupancy));
        queues.push_back(std::move(queue));
    }
    out.set("queues", std::move(queues));

    JsonValue cpus = JsonValue::array();
    for (const obs::CpuSeries& c : s.cpus) {
        JsonValue cpu = JsonValue::object();
        cpu.set("backlog_len", series_array(c.backlog_len));
        cpu.set("user_ns", series_array(c.user_ns));
        cpu.set("system_ns", series_array(c.system_ns));
        cpu.set("interrupt_ns", series_array(c.interrupt_ns));
        cpu.set("idle_ns", series_array(c.idle_ns));
        cpus.push_back(std::move(cpu));
    }
    out.set("cpus", std::move(cpus));

    JsonValue apps = JsonValue::array();
    for (std::size_t a = 0; a < s.apps.size(); ++a) {
        const obs::AppSeries& as = s.apps[a];
        const obs::TimeSeries::AppTotals& at = totals.apps[a];
        JsonValue app = JsonValue::object();
        app.set("delivered", counter(at.delivered, as.delivered));
        JsonValue adrops = JsonValue::object();
        adrops.set(obs::kDropSites[2].name, counter(at.drops[2], as.drop_verdict));
        adrops.set(obs::kDropSites[3].name, counter(at.drops[3], as.drop_bpf_store));
        adrops.set(obs::kDropSites[4].name, counter(at.drops[4], as.drop_fanout));
        adrops.set(obs::kDropSites[5].name, counter(at.drops[5], as.drop_disk_spill));
        adrops.set(obs::kDropSites[6].name, counter(at.drops[6], as.drain));
        app.set("drops", std::move(adrops));
        app.set("buffer_capacity", s.app_buffer_capacity[a]);
        app.set("buffer_occupancy", series_array(as.buffer_occupancy));
        app.set("disk_ring_capacity", s.app_disk_ring_capacity[a]);
        app.set("disk_ring_occupancy", series_array(as.disk_ring));
        apps.push_back(std::move(app));
    }
    out.set("apps", std::move(apps));

    JsonValue classification = JsonValue::array();
    for (std::size_t k = 0; k < s.classification.size(); ++k)
        classification.push_back(class_name(s.classification.at(k)));
    out.set("classification", std::move(classification));

    JsonValue episodes = JsonValue::array();
    for (const obs::OverloadEpisode& ep : s.episodes) episodes.push_back(episode(ep));
    out.set("episodes", std::move(episodes));
    return out;
}

/// Sum of the app columns of one SUT at interval k, for the .dat export.
std::int64_t delivered_at(const obs::SutSeries& s, std::size_t k) {
    std::int64_t sum = 0;
    for (const obs::AppSeries& a : s.apps) sum += a.delivered.at(k);
    return sum;
}

std::int64_t ring_occupancy_at(const obs::SutSeries& s, std::size_t k) {
    std::int64_t occ = 0;
    for (const obs::QueueSeries& q : s.queues)
        occ = std::max(occ, q.ring_occupancy.at(k));
    return occ;
}

std::int64_t buffer_occupancy_at(const obs::SutSeries& s, std::size_t k) {
    std::int64_t occ = 0;
    for (const obs::AppSeries& a : s.apps) occ = std::max(occ, a.buffer_occupancy.at(k));
    return occ;
}

}  // namespace

JsonValue TimeseriesWriter::document(const obs::TimeSeries& ts, const std::string& id) {
    if (!ts.finalized)
        throw std::logic_error("TimeseriesWriter: TimeSeries not finalized");
    JsonValue doc = JsonValue::object();
    doc.set("schema", kSchema);
    doc.set("capbench_version", kVersion);
    doc.set("id", id);
    doc.set("sample_interval_ns", ts.interval.ns());
    doc.set("samples", static_cast<std::uint64_t>(ts.sample_count()));
    doc.set("time_ns", series_array(ts.time_ns));
    doc.set("generated", counter(ts.generated_total, ts.generated));
    JsonValue suts = JsonValue::array();
    for (std::size_t s = 0; s < ts.suts.size(); ++s)
        suts.push_back(sut(ts.suts[s], ts.totals[s]));
    doc.set("suts", std::move(suts));
    return doc;
}

std::string TimeseriesWriter::serialize(const JsonValue& v) { return dump_json(v, 2) + "\n"; }

void write_timeseries_gnuplot(const std::string& dir, const std::string& id,
                              const obs::TimeSeries& ts) {
    const std::string data_path = dir + "/" + id + "_timeseries.dat";
    const std::string script_path = dir + "/" + id + "_timeseries.gp";

    std::ofstream data(data_path);
    data << "# time_ns generated";
    for (const obs::SutSeries& s : ts.suts)
        data << " " << s.name << ".ring " << s.name << ".buffer " << s.name << ".delivered "
             << s.name << ".losses";
    data << "\n";
    for (std::size_t k = 0; k < ts.sample_count(); ++k) {
        data << ts.time_ns.at(k) << " " << ts.generated.at(k);
        for (const obs::SutSeries& s : ts.suts)
            data << " " << ring_occupancy_at(s, k) << " " << buffer_occupancy_at(s, k) << " "
                 << delivered_at(s, k) << " " << s.overload_loss_at(k);
        data << "\n";
    }

    std::ofstream gp(script_path);
    gp << "# Interval telemetry panels for " << id << " (capbench.timeseries.v1)\n";
    gp << "set terminal pngcairo size 1200,800\n";
    gp << "set output '" << id << "_timeseries.png'\n";
    gp << "set multiplot layout 2,1\n";
    gp << "set key outside right\n";
    gp << "set xlabel 'Time [s]'\n";
    gp << "set ylabel 'Occupancy [entries/bytes]'\n";
    gp << "set title 'Ring / buffer occupancy'\n";
    gp << "plot";
    for (std::size_t s = 0; s < ts.suts.size(); ++s) {
        const std::size_t base = 3 + s * 4;  // first SUT column in the .dat
        if (s > 0) gp << ",";
        gp << " '" << id << "_timeseries.dat' using ($1/1e9):" << base << " with lines title '"
           << ts.suts[s].name << " ring'";
        gp << ", '" << id << "_timeseries.dat' using ($1/1e9):" << base + 1
           << " with lines title '" << ts.suts[s].name << " buffer'";
    }
    gp << "\n";
    gp << "set ylabel 'Packets per interval'\n";
    gp << "set title 'Interval rates'\n";
    gp << "plot '" << id << "_timeseries.dat' using ($1/1e9):2 with lines title 'generated'";
    for (std::size_t s = 0; s < ts.suts.size(); ++s) {
        const std::size_t base = 3 + s * 4;
        gp << ", '" << id << "_timeseries.dat' using ($1/1e9):" << base + 2
           << " with lines title '" << ts.suts[s].name << " delivered'";
        gp << ", '" << id << "_timeseries.dat' using ($1/1e9):" << base + 3
           << " with lines title '" << ts.suts[s].name << " losses'";
    }
    gp << "\n";
    gp << "unset multiplot\n";
}

}  // namespace capbench::report
