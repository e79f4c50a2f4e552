#include "capbench/dist/builtin.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace capbench::dist {

SizeHistogram mwn_trace_histogram(std::uint64_t total) {
    SizeHistogram hist{1500};
    const auto scaled = [total](double fraction) {
        return static_cast<std::uint64_t>(fraction * static_cast<double>(total));
    };

    // Heavy hitters, fractions tuned to the documented shape: the top 3
    // exceed 55 %, the top 20 exceed 75 %, mean ~= 645 bytes.
    struct Peak {
        std::uint32_t size;
        double fraction;
    };
    constexpr Peak kPeaks[] = {
        {40, 0.180},  {52, 0.120},  {1500, 0.262}, {576, 0.034}, {552, 0.030},
        {1420, 0.024}, {48, 0.021},  {64, 0.018},   {60, 0.013},  {1300, 0.011},
        {1400, 0.012}, {44, 0.013},  {1452, 0.010}, {57, 0.008},  {1440, 0.009},
        {1460, 0.009}, {1454, 0.007}, {1470, 0.006}, {1480, 0.006}, {1492, 0.008},
    };
    double assigned = 0.0;
    for (const auto& peak : kPeaks) {
        hist.add(peak.size, scaled(peak.fraction));
        assigned += peak.fraction;
    }

    // Background: the remaining ~20 % spread over all sizes with the decay
    // visible in the Figure 4.1 scatter plot (log-scale counts falling from
    // small towards mid sizes, rising slightly again towards the MTU).
    const double rest = 1.0 - assigned;
    double weight_sum = 0.0;
    std::vector<double> weights(1501, 0.0);
    // Parameters chosen so the overall mean lands at ~645 bytes.
    for (std::uint32_t size = 40; size <= 1500; ++size) {
        const double decay = std::exp(-static_cast<double>(size) / 120.0);
        const double mtu_rise = std::exp((static_cast<double>(size) - 1500.0) / 80.0);
        weights[size] = 0.01 + decay + 0.02 * mtu_rise;
        weight_sum += weights[size];
    }
    for (std::uint32_t size = 40; size <= 1500; ++size) {
        const auto count = scaled(rest * weights[size] / weight_sum);
        if (count > 0) hist.add(size, count);
    }
    return hist;
}

SizeHistogram fixed_size_histogram(std::uint32_t size, std::uint64_t total) {
    SizeHistogram hist{std::max(size, 1500u)};
    hist.add(size, total);
    return hist;
}

const TwoStageDist& mwn_trace_dist() {
    static const TwoStageDist dist{mwn_trace_histogram()};
    return dist;
}

}  // namespace capbench::dist
