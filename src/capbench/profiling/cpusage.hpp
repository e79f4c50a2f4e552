// cpusage: CPU state sampling (Chapter 5, Appendix A.3).
//
// The original tool reads the kernel's CPU state tick counters every half
// second and prints the percentage spent in each state.  The simulated
// version is a view over the per-CPU columns of the interval sampler
// (obs/timeseries.hpp), which reads the Machine's accounting with zero
// perturbation — trivially satisfying the "impact on the system load
// should be small" requirement of Section 3.2.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "capbench/sim/time.hpp"

namespace capbench::obs {
class TimeSeries;
}

namespace capbench::profiling {

/// One sampling interval's percentages (machine-wide, averaged over CPUs).
struct UsageSample {
    double user_pct = 0.0;
    double system_pct = 0.0;
    double interrupt_pct = 0.0;
    double idle_pct = 100.0;

    [[nodiscard]] double busy_pct() const { return 100.0 - idle_pct; }
};

/// cpusage over SUT `sut` of a stopped interval sampler's series: one
/// sample per window.  A window closes at every sample whose time is a
/// multiple of `window`, so a series whose interval divides `window`
/// yields `window`-long samples, and any other series samples over the
/// least common multiple of the two.  The last sample is the freeze instant
/// (IntervalSampler::stop) and never closes a window.
std::vector<UsageSample> cpusage(const obs::TimeSeries& ts, std::size_t sut,
                                 sim::Duration window);

/// Writes the human-readable cpusage output; `machine_readable` is the
/// -o option (colon separated, no state names).
void print_usage(std::ostream& out, const std::vector<UsageSample>& samples,
                 bool machine_readable = false);

}  // namespace capbench::profiling
