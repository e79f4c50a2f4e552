#include "capbench/profiling/cpusage.hpp"

#include <cstdint>
#include <ostream>
#include <stdexcept>

#include "capbench/obs/timeseries.hpp"

namespace capbench::profiling {

std::vector<UsageSample> cpusage(const obs::TimeSeries& ts, std::size_t sut,
                                 sim::Duration window) {
    if (window.ns() <= 0) throw std::invalid_argument("cpusage: window must be positive");
    const obs::SutSeries& s = ts.suts.at(sut);
    const auto cpus = static_cast<double>(s.cpus.size());
    std::vector<UsageSample> samples;
    std::int64_t opened = 0;  // time the open window started
    std::int64_t user = 0;
    std::int64_t system = 0;
    std::int64_t irq = 0;
    for (std::size_t k = 0; k + 1 < ts.sample_count(); ++k) {
        for (const obs::CpuSeries& c : s.cpus) {
            user += c.user_ns.at(k);
            system += c.system_ns.at(k);
            irq += c.interrupt_ns.at(k);
        }
        const std::int64_t now = ts.time_ns.at(k);
        if (now % window.ns() != 0) continue;
        const double span = sim::Duration{now - opened}.seconds() * cpus;
        UsageSample u;
        u.user_pct = sim::Duration{user}.seconds() / span * 100.0;
        u.system_pct = sim::Duration{system}.seconds() / span * 100.0;
        u.interrupt_pct = sim::Duration{irq}.seconds() / span * 100.0;
        u.idle_pct = 100.0 - u.user_pct - u.system_pct - u.interrupt_pct;
        if (u.idle_pct < 0.0) u.idle_pct = 0.0;
        samples.push_back(u);
        opened = now;
        user = system = irq = 0;
    }
    return samples;
}

void print_usage(std::ostream& out, const std::vector<UsageSample>& samples,
                 bool machine_readable) {
    for (const auto& s : samples) {
        if (machine_readable) {
            out << s.user_pct << ':' << s.system_pct << ':' << s.interrupt_pct << ':'
                << s.idle_pct << '\n';
        } else {
            out << "user " << s.user_pct << "  system " << s.system_pct << "  interrupt "
                << s.interrupt_pct << "  idle " << s.idle_pct << '\n';
        }
    }
}

}  // namespace capbench::profiling
