#include "capbench/obs/metrics.hpp"

#include <stdexcept>

#include "capbench/capture/tap.hpp"

namespace capbench::obs {

AppCounts attribute_drops(const capture::CaptureStats& stats, std::uint64_t ring_drops,
                          std::uint64_t backlog_drops, std::uint64_t disk_spills,
                          std::uint64_t generated) {
    // A record spilled by the disk-writer ring was handed to the app
    // (counted in stats.delivered) but never persisted: it moves from
    // `delivered` into the `disk_spill` bucket.
    if (disk_spills > stats.delivered)
        throw std::logic_error("attribute_drops: disk spills exceed delivered count");
    AppCounts c;
    c.delivered = stats.delivered - disk_spills;
    c.drops[drop_index("nic_ring")] = ring_drops;
    c.drops[drop_index("backlog")] = backlog_drops;
    c.drops[drop_index("verdict")] = stats.dropped_filter;
    c.drops[drop_index("bpf_store")] = stats.dropped_buffer;
    c.drops[drop_index("fanout")] = stats.fanout_skipped;
    c.drops[drop_index("disk_spill")] = disk_spills;
    // Everything generated that neither reached the app nor hit a terminal
    // bucket is still in flight (NIC ring, uncommitted verdict, capture
    // buffer): the `drain` bucket, the residual of monotone counters.  It
    // goes negative only if the accounting itself is broken.
    std::uint64_t terminal = c.delivered;
    for (const std::uint64_t d : c.drops) terminal += d;
    if (terminal > generated)
        throw std::logic_error("attribute_drops: drop buckets exceed generated count");
    c.drops[drop_index("drain")] = generated - terminal;
    return c;
}

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

void RunMetrics::summarize() {
    for (SutMetrics& sut : suts) {
        sut.nic_to_kernel_ns.summarize();
        for (AppMetrics& app : sut.apps) {
            app.latency_ns.summarize();
            app.enqueue_ns.summarize();
            app.deliver_ns.summarize();
        }
    }
}

}  // namespace capbench::obs
