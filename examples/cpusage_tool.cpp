// cpusage + trimusage (Chapter 5 / Appendix A.3-A.4): profile a sniffer
// during a capture run with half-second CPU-state samples and the
// longest-busy-interval averaging of the original awk script.
//
//   $ ./examples/cpusage_tool [rate_mbps] [-o]
//
// -o prints the machine-readable colon-separated format.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "capbench/core/capbench.hpp"
#include "capbench/obs/timeseries.hpp"

int main(int argc, char** argv) {
    using namespace capbench;
    using namespace capbench::harness;

    double rate = 700.0;
    bool machine_readable = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-o") == 0)
            machine_readable = true;
        else
            rate = std::atof(argv[i]);
    }

    auto sut = standard_sut("moorhen");
    sut.buffer_bytes = 10ull << 20;

    // The run's interval sampler reads the CPU-state accounting every half
    // second; a 1 s warmup and drain give trimusage an idle lead-in and
    // tail to trim.
    obs::TimeSeries ts;
    RunConfig cfg;
    cfg.packets = 300'000;
    cfg.rate_mbps = rate;
    cfg.warmup = sim::seconds(1);
    cfg.drain = sim::seconds(1);
    cfg.sample_interval = sim::milliseconds(500);
    cfg.timeseries = &ts;
    run_once({sut}, cfg);
    const auto samples = profiling::cpusage(ts, 0, sim::milliseconds(500));

    std::printf("cpusage samples (0.5 s interval) for moorhen at %.0f Mbit/s:\n", rate);
    profiling::print_usage(std::cout, samples, machine_readable);

    const auto trimmed = profiling::trim_usage(samples, 95.0);
    if (trimmed) {
        std::printf("\ntrimusage (longest run with idle < 95%%): %zu samples from #%zu\n",
                    trimmed->run_length, trimmed->run_start);
        std::printf("  user %.1f%%  system %.1f%%  interrupt %.1f%%  idle %.1f%%\n",
                    trimmed->average.user_pct, trimmed->average.system_pct,
                    trimmed->average.interrupt_pct, trimmed->average.idle_pct);
    } else {
        std::puts("\ntrimusage: no sample below the idle limit (machine never got busy)");
    }
    return 0;
}
