#include "capbench/obs/metrics.hpp"

#include <stdexcept>

namespace capbench::obs {
void RunMetrics::merge(const RunMetrics& other) {
    if (!other.enabled) return;
    if (!enabled) {
        *this = other;
        return;
    }
    if (suts.size() != other.suts.size())
        throw std::logic_error("RunMetrics::merge: SUT count mismatch");
    generated += other.generated;
    for (std::size_t s = 0; s < suts.size(); ++s) {
        SutMetrics& a = suts[s];
        const SutMetrics& b = other.suts[s];
        if (a.name != b.name || a.apps.size() != b.apps.size())
            throw std::logic_error("RunMetrics::merge: SUT shape mismatch");
        a.offered += b.offered;
        a.ring_drops += b.ring_drops;
        a.backlog_drops += b.backlog_drops;
        a.nic_to_kernel_ns.append(b.nic_to_kernel_ns);
        a.cpu_samples.insert(a.cpu_samples.end(), b.cpu_samples.begin(),
                             b.cpu_samples.end());
        for (std::size_t i = 0; i < a.apps.size(); ++i) {
            AppMetrics& x = a.apps[i];
            const AppMetrics& y = b.apps[i];
            x.delivered += y.delivered;
            for (const DropSite& site : kDropSites) x.*site.member += y.*site.member;
            x.latency_ns.append(y.latency_ns);
            x.enqueue_ns.append(y.enqueue_ns);
            x.deliver_ns.append(y.deliver_ns);
        }
    }
    if (counters.size() != other.counters.size())
        throw std::logic_error("RunMetrics::merge: counter count mismatch");
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i].first != other.counters[i].first)
            throw std::logic_error("RunMetrics::merge: counter name mismatch");
        counters[i].second += other.counters[i].second;
    }
}

}  // namespace capbench::obs
