#include "capbench/scenario/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "capbench/harness/report.hpp"

namespace capbench::scenario {

namespace {

std::string variant_caption(const Scenario& s, const Variant& v) {
    if (v.name.empty()) return s.caption;
    return s.caption + " — " + v.name;
}

void print_custom(std::ostream& out, const CustomResult& table) {
    bool first = true;
    for (const auto& t : table.tables) {
        if (!first) out << '\n';
        first = false;
        if (!t.title.empty()) out << t.title << ":\n";
        harness::Table rendered{t.headers};
        for (const auto& row : t.rows) rendered.add_row(row);
        rendered.print(out);
    }
    if (!table.notes.empty()) out << '\n' << table.notes << '\n';
}

void export_sweep_gnuplot(const std::string& dir, const std::string& file_id,
                          const std::string& caption, const std::string& gp_x_label,
                          const std::vector<harness::SweepRow>& rows, bool multi_app,
                          std::ostream* out) {
    const std::string base = dir + "/" + file_id;
    std::ofstream data{base + ".dat"};
    harness::write_gnuplot_data(data, rows, multi_app);
    std::ofstream script{base + ".gp"};
    harness::write_gnuplot_script(script, file_id + ".dat", caption, rows, gp_x_label,
                                  multi_app);
    if (!data || !script)
        throw std::runtime_error("gnuplot export failed: cannot write " + base + ".dat/.gp");
    if (out != nullptr) *out << "(gnuplot data written to " << base << ".dat / .gp)\n";
}

void export_custom_data(const std::string& dir, const ScenarioResult& res, std::ostream* out) {
    const std::string path = dir + "/" + res.id + ".dat";
    std::ofstream data{path};
    data << "# " << res.id << ": " << res.caption << '\n';
    for (const auto& t : res.table.tables) {
        if (!t.title.empty()) data << "# " << t.title << '\n';
        data << '#';
        for (const auto& h : t.headers) data << ' ' << h << " |";
        data << '\n';
        for (const auto& row : t.rows) {
            for (std::size_t i = 0; i < row.size(); ++i) data << (i > 0 ? "\t" : "") << row[i];
            data << '\n';
        }
    }
    if (!data)
        throw std::runtime_error("gnuplot export failed: cannot write " + path);
    if (out != nullptr) *out << "(table data written to " << path << ")\n";
}

std::string resolve_gnuplot_dir(const RunOptions& opts) {
    std::string dir = opts.gnuplot_dir;
    if (dir.empty() && opts.gnuplot_env_fallback) {
        if (const char* env = std::getenv("CAPBENCH_GNUPLOT_DIR")) dir = env;
    }
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec)
            throw std::runtime_error("cannot create gnuplot directory '" + dir +
                                     "': " + ec.message());
    }
    return dir;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& s, const RunOptions& opts) {
    ScenarioResult res;
    res.id = s.id;
    res.caption = s.caption;
    res.x_label = s.x_label();
    res.multi_app = s.multi_app;
    res.is_custom = s.is_custom();
    res.postscript = s.postscript;
    res.packets = opts.packets != 0 ? opts.packets : harness::packets_per_run();
    res.reps = opts.reps != 0 ? opts.reps : harness::default_reps();
    res.base_seed = opts.seed;
    res.jobs = std::max(1, opts.jobs);

    std::ostream* out = opts.out;
    const std::string gnuplot_dir = resolve_gnuplot_dir(opts);

    if (s.is_custom()) {
        if (out != nullptr) {
            harness::print_figure_banner(*out, s.id, s.caption);
            if (s.preamble) s.preamble(*out);
        }
        res.table = s.custom();
        if (out != nullptr) print_custom(*out, res.table);
        if (!gnuplot_dir.empty()) export_custom_data(gnuplot_dir, res, out);
        return res;
    }

    if (out != nullptr && s.preamble) s.preamble(*out);

    const harness::ParallelExecutor exec{res.jobs};
    const std::string gp_x_label = s.axis == Axis::kRateMbps ? "Datarate [Mbit/s]"
                                   : s.axis == Axis::kBufferKb
                                       ? "Buffer size [kB]"
                                       : "Receive queues / cores";
    bool first_variant = true;
    for (const auto& v : s.variants) {
        const auto suts = v.suts();
        harness::RunConfig cfg;
        cfg.packets = res.packets;
        cfg.seed = res.base_seed;
        cfg.collect_metrics = opts.metrics;
        cfg.sample_interval = opts.sample_interval;
        if (v.tweak) v.tweak(cfg);

        // The timeline and time-series belong to one deterministic run:
        // the first variant's sweep designates its last point (see
        // rate_sweep).
        obs::TraceSink* trace = first_variant ? opts.trace : nullptr;
        obs::TimeSeries* timeseries = first_variant ? opts.timeseries : nullptr;
        first_variant = false;

        std::vector<harness::SweepRow> rows;
        if (s.axis == Axis::kRateMbps) {
            rows = harness::rate_sweep(suts, cfg, s.sweep, res.reps, &exec, trace, timeseries);
        } else if (s.axis == Axis::kQueues) {
            std::vector<int> counts;
            counts.reserve(s.sweep.size());
            for (const double c : s.sweep) counts.push_back(static_cast<int>(c));
            rows = harness::queue_sweep(suts, cfg, counts, res.reps, &exec, trace, timeseries);
        } else {
            std::vector<std::uint64_t> buffer_kb;
            buffer_kb.reserve(s.sweep.size());
            for (const double kb : s.sweep)
                buffer_kb.push_back(static_cast<std::uint64_t>(kb));
            rows = harness::buffer_sweep(suts, cfg, buffer_kb, res.reps, &exec, trace,
                                         timeseries);
        }

        if (out != nullptr) {
            harness::print_figure_banner(*out, s.id + v.suffix, variant_caption(s, v));
            harness::print_sweep(*out, res.x_label, rows, s.multi_app);
        }
        if (!gnuplot_dir.empty())
            export_sweep_gnuplot(gnuplot_dir, s.id + v.suffix, variant_caption(s, v),
                                 gp_x_label, rows, s.multi_app, out);

        VariantResult vr;
        vr.name = v.name;
        vr.suffix = v.suffix;
        vr.points.reserve(rows.size());
        for (auto& row : rows)
            vr.points.push_back(PointResult{row.rate_mbps, std::move(row.result)});
        res.variants.push_back(std::move(vr));
    }
    if (out != nullptr && !s.postscript.empty()) *out << '\n' << s.postscript << '\n';
    return res;
}

std::string list_text() {
    std::size_t width = 0;
    for (const auto& s : registry()) width = std::max(width, s.id.size());
    std::string out;
    for (const auto& s : registry()) {
        out += s.id;
        out.append(width + 2 - s.id.size(), ' ');
        out += s.caption;
        out += '\n';
    }
    return out;
}

}  // namespace capbench::scenario
