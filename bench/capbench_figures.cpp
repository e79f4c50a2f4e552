// capbench_figures — the data-driven figure runner.
//
// Replaces the per-figure main()s: every reproduced figure/table lives in
// the scenario registry (src/capbench/scenario/registry.cpp) and this one
// binary lists and runs them, fans sweep points out over worker threads,
// and emits the shared text/gnuplot/JSON reports.
//
//   capbench_figures --list
//   capbench_figures --run fig_6_2 fig_6_4 --jobs 8
//   capbench_figures --all --jobs 8 --json results.json --gnuplot plots/
//   capbench_figures --run fig_6_2 --trace=trace.json --metrics=metrics.json
//   capbench_figures --run ext_overload_pulse --trace=t.json --timeseries=ts.json
//
// Scale knobs: CAPBENCH_PACKETS, CAPBENCH_REPS, CAPBENCH_JOBS (the
// --jobs default), CAPBENCH_GNUPLOT_DIR (the --gnuplot default) and
// CAPBENCH_SAMPLE_INTERVAL (the --timeseries interval, microseconds).
// Results are bit-identical regardless of --jobs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/report/metrics_writer.hpp"
#include "capbench/report/timeseries_writer.hpp"
#include "capbench/report/writer.hpp"
#include "capbench/scenario/runner.hpp"

namespace {

using namespace capbench;

constexpr const char* kUsage =
    "usage: capbench_figures [--list] [--run <id>...] [--all] [--jobs N]\n"
    "                        [--json <path>] [--gnuplot <dir>]\n"
    "                        [--metrics <path>] [--trace <path>]\n"
    "                        [--timeseries <path>] [--verify-filters]\n"
    "\n"
    "  --list          print every registered scenario id and caption\n"
    "  --verify-filters  run the BPF verifier over every filter program\n"
    "                  reachable from the scenario registry; exit nonzero on\n"
    "                  any error-severity finding\n"
    "  --run <id>...   run the named scenarios (ids as shown by --list)\n"
    "  --all           run every registered scenario\n"
    "  --jobs N        sweep-point worker threads (default: CAPBENCH_JOBS or 1);\n"
    "                  results are bit-identical regardless of N\n"
    "  --json <path>   write one capbench.figures.v1 suite document covering\n"
    "                  all scenarios run\n"
    "  --gnuplot <dir> write <id>.dat/.gp per figure (default: CAPBENCH_GNUPLOT_DIR)\n"
    "  --metrics <path> collect packet-lifecycle metrics for every sweep point\n"
    "                  and write one capbench.metrics-suite.v1 document\n"
    "  --trace <path>  write a Chrome trace-event JSON timeline (load in\n"
    "                  Perfetto / chrome://tracing) of one designated run:\n"
    "                  first selected sweep scenario, first variant, last\n"
    "                  sweep point, rep 0\n"
    "  --timeseries <path>  sample interval telemetry of the same designated\n"
    "                  run (every CAPBENCH_SAMPLE_INTERVAL microseconds of\n"
    "                  simulated time, default 1000) and write one\n"
    "                  capbench.timeseries.v1 document; with --gnuplot the\n"
    "                  occupancy/rate panels are exported too\n"
    "\n"
    "Flags taking a value also accept the --flag=value form.\n";

struct CliOptions {
    bool list = false;
    bool verify_filters = false;
    bool all = false;
    std::vector<std::string> ids;
    int jobs = 0;  // 0 = CAPBENCH_JOBS / 1
    std::string json_path;
    std::string gnuplot_dir;
    std::string metrics_path;
    std::string trace_path;
    std::string timeseries_path;
};

CliOptions parse_cli(int argc, char** argv) {
    CliOptions opts;
    // --gnuplot's default, for the figure and time-series exports alike.
    if (const char* env = std::getenv("CAPBENCH_GNUPLOT_DIR")) opts.gnuplot_dir = env;
    bool collecting_ids = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // --flag=value form: split once so the dispatch below only ever
        // sees the bare flag; `next()` then consumes the inline value.
        std::string inline_value;
        bool has_inline_value = false;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_inline_value = true;
            }
        }
        const auto next = [&](const char* flag) -> std::string {
            if (has_inline_value) return inline_value;
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(flag) + " requires an argument");
            return argv[++i];
        };
        const auto no_value = [&](const char* flag) {
            if (has_inline_value)
                throw std::runtime_error(std::string(flag) + " does not take a value");
        };
        if (arg == "--list") {
            no_value("--list");
            opts.list = true;
            collecting_ids = false;
        } else if (arg == "--verify-filters") {
            no_value("--verify-filters");
            opts.verify_filters = true;
            collecting_ids = false;
        } else if (arg == "--all") {
            no_value("--all");
            opts.all = true;
            collecting_ids = false;
        } else if (arg == "--run") {
            no_value("--run");
            collecting_ids = true;
        } else if (arg == "--jobs") {
            opts.jobs = static_cast<int>(
                harness::parse_integer("--jobs", next("--jobs"), 1, harness::kMaxJobs));
            collecting_ids = false;
        } else if (arg == "--json") {
            opts.json_path = next("--json");
            collecting_ids = false;
        } else if (arg == "--gnuplot") {
            opts.gnuplot_dir = next("--gnuplot");
            collecting_ids = false;
        } else if (arg == "--metrics") {
            opts.metrics_path = next("--metrics");
            collecting_ids = false;
        } else if (arg == "--trace") {
            opts.trace_path = next("--trace");
            collecting_ids = false;
        } else if (arg == "--timeseries") {
            opts.timeseries_path = next("--timeseries");
            collecting_ids = false;
        } else if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (collecting_ids && arg.rfind("--", 0) != 0) {
            opts.ids.push_back(arg);
        } else {
            throw std::runtime_error("unknown argument '" + arg + "'");
        }
    }
    return opts;
}

/// The verifier gate (the `figures_verify_filters` ctest): every filter
/// expression reachable from the scenario registry (every variant's SUT
/// roster), compiled in both its stock and optimized form, must pass the
/// verifier with no error-severity finding.
int verify_registry_filters() {
    std::set<std::string> expressions;
    for (const auto& s : scenario::registry())
        for (const auto& v : s.variants)
            for (const auto& sut : v.suts())
                if (!sut.filter_expression.empty())
                    expressions.insert(sut.filter_expression);

    int errors = 0;
    std::size_t programs = 0;
    for (const std::string& expr : expressions) {
        for (const bool optimize : {false, true}) {
            const auto prog =
                bpf::filter::compile_filter(expr, 1515, {.optimize = optimize});
            const auto result = bpf::verify(prog);
            ++programs;
            std::printf("%s (%s, %zu insns): %zu finding(s)\n", expr.c_str(),
                        optimize ? "optimized" : "stock", prog.size(),
                        result.findings.size());
            for (const auto& f : result.findings)
                std::printf("  %s\n", bpf::analysis::to_string(f).c_str());
            if (!result.ok()) ++errors;
        }
    }
    std::printf("verified %zu program(s) from %zu registry expression(s): %d with "
                "errors\n",
                programs, expressions.size(), errors);
    return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    CliOptions cli;
    try {
        cli = parse_cli(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "capbench_figures: %s\n%s", e.what(), kUsage);
        return 2;
    }

    if (cli.list) {
        std::fputs(scenario::list_text().c_str(), stdout);
        return 0;
    }
    if (cli.verify_filters) {
        try {
            return verify_registry_filters();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "capbench_figures: %s\n", e.what());
            return 1;
        }
    }
    if (!cli.all && cli.ids.empty()) {
        std::fputs(kUsage, stderr);
        return 2;
    }

    try {
        std::vector<const scenario::Scenario*> selected;
        if (cli.all) {
            for (const auto& s : scenario::registry()) selected.push_back(&s);
        } else {
            for (const auto& id : cli.ids) {
                const scenario::Scenario* s = scenario::find_scenario(id);
                if (s == nullptr)
                    throw std::runtime_error("unknown scenario '" + id +
                                             "' (see --list for the registered ids)");
                selected.push_back(s);
            }
        }

        scenario::RunOptions run_opts;
        run_opts.out = &std::cout;
        run_opts.jobs = cli.jobs != 0 ? cli.jobs : harness::default_jobs();
        run_opts.gnuplot_dir = cli.gnuplot_dir;
        run_opts.metrics = !cli.metrics_path.empty();

        obs::TraceSink trace_sink;
        bool trace_assigned = false;

        // The time-series interval: CAPBENCH_SAMPLE_INTERVAL (strictly
        // parsed microseconds) or 1 ms when --timeseries is given without
        // the variable.
        obs::TimeSeries timeseries;
        bool timeseries_assigned = false;
        std::string timeseries_id;
        sim::Duration sample_interval = harness::sample_interval_from_env();
        if (!cli.timeseries_path.empty() && sample_interval.ns() == 0)
            sample_interval = sim::milliseconds(1);

        std::vector<report::JsonValue> documents;
        std::vector<report::JsonValue> metric_docs;
        for (const scenario::Scenario* s : selected) {
            // The timeline and the time-series record one designated run;
            // both go to the first sweep scenario on the command line
            // (custom/table scenarios run no measurement).
            run_opts.trace = nullptr;
            run_opts.timeseries = nullptr;
            run_opts.sample_interval = sim::Duration::zero();
            if (!cli.trace_path.empty() && !trace_assigned && !s->is_custom()) {
                run_opts.trace = &trace_sink;
                trace_assigned = true;
            }
            if (!cli.timeseries_path.empty() && !timeseries_assigned && !s->is_custom()) {
                run_opts.timeseries = &timeseries;
                run_opts.sample_interval = sample_interval;
                timeseries_assigned = true;
                timeseries_id = s->id;
            }
            const scenario::ScenarioResult result = scenario::run_scenario(*s, run_opts);
            if (!cli.json_path.empty())
                documents.push_back(report::JsonWriter::document(result));
            if (!cli.metrics_path.empty())
                metric_docs.push_back(report::MetricsWriter::document(result));
        }

        if (!cli.json_path.empty()) {
            std::ofstream out{cli.json_path};
            out << report::JsonWriter::serialize(
                report::JsonWriter::suite(std::move(documents)));
            if (!out)
                throw std::runtime_error("cannot write JSON results to '" + cli.json_path +
                                         "'");
            std::printf("(JSON results written to %s)\n", cli.json_path.c_str());
        }
        if (!cli.metrics_path.empty()) {
            std::ofstream out{cli.metrics_path};
            out << report::MetricsWriter::serialize(report::MetricsWriter::suite(
                std::move(metric_docs),
                timeseries_assigned && timeseries.finalized ? &timeseries : nullptr));
            if (!out)
                throw std::runtime_error("cannot write metrics to '" + cli.metrics_path +
                                         "'");
            std::printf("(metrics written to %s)\n", cli.metrics_path.c_str());
        }
        if (!cli.trace_path.empty()) {
            if (!trace_assigned)
                throw std::runtime_error(
                    "--trace needs at least one sweep (non-table) scenario");
            std::ofstream out{cli.trace_path};
            trace_sink.write_chrome_json(out);
            if (!out)
                throw std::runtime_error("cannot write trace to '" + cli.trace_path + "'");
            std::printf("(trace written to %s — load in Perfetto or chrome://tracing)\n",
                        cli.trace_path.c_str());
        }
        if (!cli.timeseries_path.empty()) {
            if (!timeseries_assigned)
                throw std::runtime_error(
                    "--timeseries needs at least one sweep (non-table) scenario");
            std::ofstream out{cli.timeseries_path};
            out << report::TimeseriesWriter::serialize(
                report::TimeseriesWriter::document(timeseries, timeseries_id));
            if (!out)
                throw std::runtime_error("cannot write timeseries to '" +
                                         cli.timeseries_path + "'");
            std::printf("(timeseries written to %s)\n", cli.timeseries_path.c_str());
            if (!cli.gnuplot_dir.empty()) {
                report::write_timeseries_gnuplot(cli.gnuplot_dir, timeseries_id, timeseries);
                std::printf("(timeseries gnuplot written to %s/%s_timeseries.dat / .gp)\n",
                            cli.gnuplot_dir.c_str(), timeseries_id.c_str());
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "capbench_figures: %s\n", e.what());
        return 1;
    }
}
