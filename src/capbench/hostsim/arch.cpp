#include "capbench/hostsim/arch.hpp"

#include <algorithm>
#include <cmath>

namespace capbench::hostsim {

const ArchSpec& ArchSpec::intel_xeon() {
    static const ArchSpec spec{
        .name = "Intel Xeon 3.06GHz",
        .clock_hz = 3.06e9,
        .mem_latency_ns = 185.0,
        .mem_contention = 1.45,
        .copy_ns_per_byte = 0.48,
        .cache_kb = 512,
        .spill_factor = 2.1,
        .ht_capable = true,
        .ht_sibling_slowdown = 1.6,
    };
    return spec;
}

const ArchSpec& ArchSpec::amd_opteron() {
    static const ArchSpec spec{
        .name = "AMD Opteron 244",
        .clock_hz = 1.8e9,
        .mem_latency_ns = 82.0,
        .mem_contention = 1.06,
        .copy_ns_per_byte = 0.31,
        .cache_kb = 1024,
        .spill_factor = 1.5,
        .ht_capable = false,
        .ht_sibling_slowdown = 1.0,
    };
    return spec;
}

double spill_factor(const ArchSpec& arch, double working_set_bytes) {
    double spill = 1.0;
    const double cache_bytes = static_cast<double>(arch.cache_kb) * 1024.0;
    if (working_set_bytes > cache_bytes) {
        const double ratio = working_set_bytes / cache_bytes;
        const double t = std::min(std::log2(ratio) / 6.0, 1.0);
        spill = 1.0 + (arch.spill_factor - 1.0) * t;
    }
    return spill;
}

}  // namespace capbench::hostsim
