#include "capbench/harness/experiment.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace capbench::harness {

std::uint64_t parse_integer(const std::string& name, const std::string& text,
                            std::uint64_t min, std::uint64_t max) {
    const auto reject = [&](const char* why) {
        throw std::runtime_error(name + "='" + text + "': " + why +
                                 " (expected an integer in [" + std::to_string(min) + ", " +
                                 std::to_string(max) + "])");
    };
    if (text.empty()) reject("empty value");
    if (text[0] == '-') reject("negative value");
    // strtoull would skip leading whitespace; be strict instead.
    if (text[0] != '+' && (text[0] < '0' || text[0] > '9')) reject("not a number");
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') reject("not a number");
    if (errno == ERANGE || parsed < min || parsed > max) reject("value out of range");
    return parsed;
}

namespace {

std::uint64_t env_knob(const char* name, std::uint64_t fallback, std::uint64_t max_value) {
    const char* value = std::getenv(name);
    if (value == nullptr) return fallback;
    return parse_integer(name, value, 1, max_value);
}

}  // namespace

std::vector<double> default_rate_grid() {
    std::vector<double> rates;
    for (int r = 50; r <= 950; r += 50) rates.push_back(static_cast<double>(r));
    return rates;
}

std::uint64_t packets_per_run() {
    return env_knob("CAPBENCH_PACKETS", 300'000, 1'000'000'000ull);
}

int default_reps() { return static_cast<int>(env_knob("CAPBENCH_REPS", 1, 1'000)); }

int default_jobs() { return static_cast<int>(env_knob("CAPBENCH_JOBS", 1, kMaxJobs)); }

int default_queues() { return static_cast<int>(env_knob("CAPBENCH_QUEUES", 1, 16)); }

sim::Duration sample_interval_from_env() {
    const char* value = std::getenv("CAPBENCH_SAMPLE_INTERVAL");
    if (value == nullptr) return sim::Duration::zero();
    // Microseconds of simulated time, capped at one hour.
    const std::uint64_t us =
        parse_integer("CAPBENCH_SAMPLE_INTERVAL", value, 1, 3'600'000'000ull);
    return sim::microseconds(static_cast<std::int64_t>(us));
}

std::vector<int> affinity_from_env() {
    const char* value = std::getenv("CAPBENCH_AFFINITY");
    if (value == nullptr) return {};
    const std::string text = value;
    if (text.empty())
        throw std::runtime_error(
            "CAPBENCH_AFFINITY='': empty value (expected a comma-separated CPU list)");
    std::vector<int> cpus;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = text.find(',', start);
        const std::string item = text.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        cpus.push_back(static_cast<int>(parse_integer("CAPBENCH_AFFINITY", item, 0, 255)));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return cpus;
}

std::vector<SutConfig> standard_suts() {
    return {standard_sut("swan"), standard_sut("snipe"), standard_sut("moorhen"),
            standard_sut("flamingo")};
}

void apply_increased_buffers(std::vector<SutConfig>& suts) {
    for (auto& sut : suts) {
        sut.buffer_bytes = sut.os->family == capture::OsFamily::kFreeBsd
                               ? 10ull * 1024 * 1024    // 10 MB per half
                               : 128ull * 1024 * 1024;  // 128 MB rmem
    }
}

void apply_single_cpu(std::vector<SutConfig>& suts) {
    for (auto& sut : suts) sut.cores = 1;
}

std::string fig_6_5_filter_expression() {
    std::ostringstream out;
    out << "ether[6:4]=0x00000000 and ether[10]=0x00 and not tcp";
    for (int i = 1; i <= 19; ++i)
        out << " and not ip src " << i * 10 << ".11.12." << 12 + i;
    for (int i = 1; i <= 19; ++i) {
        // The thesis listing has a typo at line 25 ("990.99..."); we keep
        // the valid octets.
        out << " and not ip dst " << i * 10 << ".99.12." << 12 + i;
    }
    return out.str();
}

AxisLabels axis_labels(Axis axis) {
    switch (axis) {
        case Axis::kRateMbps: return {"Mbit/s", "Datarate [Mbit/s]"};
        case Axis::kBufferKb: return {"buffer kB", "Buffer size [kB]"};
        case Axis::kQueues: return {"queues", "Receive queues / cores"};
    }
    throw std::logic_error("unknown sweep axis");
}

void apply_axis(Axis axis, double x, std::vector<SutConfig>& suts, RunConfig& cfg) {
    switch (axis) {
        case Axis::kRateMbps:
            cfg.rate_mbps = x;
            break;
        case Axis::kBufferKb:
            // "The buffer size was reduced by a factor of two for FreeBSD"
            // so the effective (double-buffered) space matches Linux.
            for (auto& sut : suts)
                sut.buffer_bytes = static_cast<std::uint64_t>(x) * 1024 /
                                   (sut.os->family == capture::OsFamily::kFreeBsd ? 2 : 1);
            cfg.rate_mbps = 0.0;  // highest possible rate, no inter-packet gap
            break;
        case Axis::kQueues:
            // Queue j's IRQ line lands on CPU j (the default affinity), so
            // each point is a balanced N-queue/N-core configuration.
            for (auto& sut : suts) sut.cores = sut.nic.queues = static_cast<int>(x);
            break;
    }
}

std::vector<PointResult> sweep(Axis axis, const std::vector<SutConfig>& suts,
                               const RunConfig& base, const std::vector<double>& xs, int reps,
                               const ParallelExecutor* exec) {
    std::vector<PointResult> points(xs.size());
    const auto run_point = [&](std::size_t i) {
        std::vector<SutConfig> point_suts = suts;
        RunConfig cfg = base;
        apply_axis(axis, xs[i], point_suts, cfg);
        // Only the designated (last) point keeps base's sinks.
        if (i + 1 != xs.size()) {
            cfg.trace = nullptr;
            cfg.timeseries = nullptr;
        }
        points[i] = PointResult{xs[i], run_repeated(point_suts, cfg, reps)};
    };
    if (exec != nullptr) {
        exec->parallel_for(points.size(), run_point);
    } else {
        for (std::size_t i = 0; i < points.size(); ++i) run_point(i);
    }
    return points;
}

}  // namespace capbench::harness
