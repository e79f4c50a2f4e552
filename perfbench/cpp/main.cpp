// perfbench_timer — times capbench's user path for one benchmark
// workload and prints one JSON document on stdout.  perfbench/run.py
// builds it, calls it and turns its output into the benchmark result.
//
//   perfbench_timer cpus --workload W
//       the calibration kernel's time on each usable CPU, fastest first
//   perfbench_timer setup --workload W --seed N
//       one pass of the user path at one packet per sweep point, cold in
//       this fresh process (run it several times), then one calibration
//       kernel
//   perfbench_timer run   --workload W --seed N --seconds S [--reference-out F]
//       a warm-up pass at the reference seed (its figures document goes to
//       F), then timed passes at seed N until S seconds have passed
//   perfbench_timer trace --workload W --seed N --seconds S [--reference-out F]
//                          [--spans-out F]
//       the same warm-up, then the layer profile (see layers.hpp)
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "capbench/report/json.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using capbench::report::JsonValue;

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string reference_out;
    std::string spans_out;
};

Args parse_args(int argc, char** argv) {
    if (argc < 2) throw std::runtime_error("usage: perfbench_timer cpus|setup|run|trace ...");
    Args a;
    a.mode = argv[1];
    if (a.mode != "cpus" && a.mode != "setup" && a.mode != "run" && a.mode != "trace")
        throw std::runtime_error("unknown mode '" + a.mode + "'");
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::runtime_error(flag + " requires a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--reference-out") {
            a.reference_out = value;
        } else if (flag == "--spans-out") {
            a.spans_out = value;
        } else {
            throw std::runtime_error("unknown argument '" + flag + "'");
        }
    }
    if (a.workload.empty()) throw std::runtime_error("--workload is required");
    return a;
}

/// Knobs that change a default the benchmark is meant to measure.
constexpr std::string_view kForbiddenKnobs[] = {
    "CAPBENCH_EVENT_QUEUE", "CAPBENCH_BPF_TIER", "CAPBENCH_JOBS",
    "CAPBENCH_QUEUES",      "CAPBENCH_AFFINITY", "CAPBENCH_SAMPLE_INTERVAL",
};

void guard_defaults() {
    if (std::string_view{PERFBENCH_BUILD_TYPE} != "Release")
        throw std::runtime_error(std::string("built as '") + PERFBENCH_BUILD_TYPE +
                                 "', the benchmark needs a Release build");
    for (const std::string_view knob : kForbiddenKnobs)
        if (std::getenv(std::string(knob).c_str()) != nullptr)
            throw std::runtime_error(std::string(knob) +
                                     " is set; the benchmark measures the defaults");
}

/// Times the calibration kernel on every CPU this process may use (best of
/// three each) and lists them fastest first.  Virtual CPUs of one guest
/// can run at very different speeds when the host is shared.
JsonValue cpu_speeds() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<std::pair<double, int>> speeds;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
        double best = calibration_seconds();
        for (int i = 0; i < 2; ++i) best = std::min(best, calibration_seconds());
        speeds.emplace_back(best, cpu);
    }
    if (sched_setaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    std::sort(speeds.begin(), speeds.end());
    JsonValue list = JsonValue::array();
    for (const auto& [seconds, cpu] : speeds) {
        JsonValue o = JsonValue::object();
        o.set("cpu", cpu);
        o.set("calibration_s", seconds);
        list.push_back(std::move(o));
    }
    return list;
}

JsonValue checks_json(const Checks& c) {
    JsonValue o = JsonValue::object();
    o.set("attempted", c.attempted);
    o.set("failed", c.failed);
    o.set("first_failure", c.first_failure);
    return o;
}

/// The warm-up pass: the reference seed, excluded from every timing.
double warm_up(const Workload& w, const Args& a, Checks& checks) {
    const double start = now_seconds();
    const PassResult warm = run_pass(w, kReferenceSeed, user_options(w));
    const double wall = now_seconds() - start;
    checks.merge(warm.checks);
    if (!a.reference_out.empty()) {
        std::ofstream out{a.reference_out, std::ios::binary};
        out << warm.figures;
        if (!out) throw std::runtime_error("cannot write '" + a.reference_out + "'");
    }
    return wall;
}

JsonValue timed_passes(const Workload& w, const Args& a, Checks& checks) {
    const PassOptions opts = user_options(w);
    JsonValue passes = JsonValue::array();
    std::string first_figures;
    std::uint64_t generated = 0;
    std::size_t count = 0;
    const double start = now_seconds();
    JsonValue calibrations = JsonValue::array();
    double first_pass_rss_mb = 0.0;
    while (count < 3 || (now_seconds() - start < a.seconds && count < 1000)) {
        // Pass k runs between calibrations k-1 and k; the first has none
        // before it so peak RSS is read before the kernel's table exists.
        if (count > 0) calibrations.push_back(calibration_seconds());
        const double cpu0 = process_cpu_seconds();
        const double t0 = now_seconds();
        PassResult r = run_pass(w, a.seed, opts);
        const double wall = now_seconds() - t0;
        const double cpu = process_cpu_seconds() - cpu0;
        checks.merge(r.checks);
        if (count == 0) {
            first_figures = std::move(r.figures);
            generated = r.generated;
            first_pass_rss_mb = peak_rss_mb();
        } else {
            checks.expect(r.figures == first_figures && r.generated == generated,
                          "pass " + std::to_string(count) +
                              " differs from the first pass at the same seed");
        }
        JsonValue p = JsonValue::object();
        p.set("wall_s", wall);
        p.set("cpu_s", cpu);
        passes.push_back(std::move(p));
        ++count;
    }
    calibrations.push_back(calibration_seconds());
    JsonValue o = JsonValue::object();
    o.set("passes", std::move(passes));
    o.set("calibration_s", std::move(calibrations));
    o.set("generated_per_pass", generated);
    o.set("peak_rss_mb", first_pass_rss_mb);
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse_args(argc, argv);
        guard_defaults();
        const Workload& w = find_workload(a.workload);

        JsonValue out = JsonValue::object();
        out.set("schema", "perfbench.timer.v1");
        out.set("mode", a.mode);
        out.set("workload", w.name);
        out.set("seed", a.seed);
        out.set("build_type", PERFBENCH_BUILD_TYPE);
        out.set("compiler", PERFBENCH_COMPILER);
        out.set("jobs", w.jobs);
        out.set("packets", w.packets);

        if (a.mode == "cpus") {
            out.set("cpus", cpu_speeds());
        } else if (a.mode == "setup") {
            // At one packet per point the pass is almost all set-up, and
            // nothing ran before it in this process.
            Workload cold = w;
            cold.packets = 1;
            const double start = now_seconds();
            const PassResult r = run_pass(cold, a.seed, user_options(w));
            out.set("setup_s", now_seconds() - start);
            out.set("calibration_s", calibration_seconds());
            out.set("checks", checks_json(r.checks));
        } else {
            Checks checks;
            const double filter_install_s =
                a.mode == "trace" ? cold_filter_install_seconds(w) : 0.0;
            out.set("warm_pass_s", warm_up(w, a, checks));
            if (a.mode == "run") {
                JsonValue timed = timed_passes(w, a, checks);
                for (auto& [key, value] : timed.as_object()) out.set(key, value);
            } else {
                const LayerProfile prof =
                    profile_layers(w, a.seed, a.seconds, filter_install_s, a.spans_out);
                checks.merge(prof.checks);
                JsonValue metrics = JsonValue::object();
                for (const auto& [name, vu] : prof.metrics) {
                    JsonValue m = JsonValue::object();
                    m.set("value", vu.first);
                    m.set("unit", vu.second);
                    metrics.set(name, std::move(m));
                }
                out.set("metrics", std::move(metrics));
            }
            out.set("checks", checks_json(checks));
        }
        std::cout << capbench::report::dump_json(out) << '\n';
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_timer: %s\n", e.what());
        return 1;
    }
}
