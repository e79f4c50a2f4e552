#include "capbench/harness/measurement.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "capbench/dist/builtin.hpp"
#include "capbench/obs/observer.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/profiling/cpusage.hpp"

namespace capbench::harness {

RunResult run_once(const std::vector<SutConfig>& suts, const RunConfig& config) {
    if (config.timeseries != nullptr && config.sample_interval.ns() <= 0)
        throw std::invalid_argument(
            "RunConfig::timeseries requires a positive sample_interval");
    const bool sampling = config.timeseries != nullptr;
    // A trace or time-series sink implies observation; plain metrics can
    // be requested alone.  Without any, no Observer exists and every hook
    // in the hot path is a null-pointer branch — the
    // zero-cost-when-disabled contract.
    const bool observe = config.collect_metrics || config.trace != nullptr || sampling;
    std::unique_ptr<obs::Observer> observer;
    if (observe) observer = std::make_unique<obs::Observer>(config.trace);

    TestbedConfig tb;
    tb.observer = observer.get();
    tb.suts = suts;
    tb.gen.count = config.packets;
    tb.gen.rate_mbps = config.rate_mbps;
    tb.gen.seed = config.seed;
    tb.gen.full_bytes = config.full_bytes;
    tb.gen.flow_count = config.flow_count;
    tb.gen.burst_period_ns = config.burst_period.ns();
    tb.gen.burst_duration_ns = config.burst_duration.ns();
    tb.gen.burst_multiplier = config.burst_multiplier;
    if (config.use_mwn_dist) {
        tb.gen.size_dist.emplace(dist::mwn_trace_histogram());
        tb.gen.use_dist = true;
    } else {
        tb.gen.packet_size = config.fixed_size;
        tb.gen.use_dist = false;
    }

    tb.link_gbps = config.link_gbps;
    tb.distribute_round_robin = config.distribute_round_robin;
    Testbed bed{std::move(tb)};
    if (observer) observer->reserve(config.packets);
    bed.start_suts();

    // Per-SUT cpusage profilers (step 1 also starts the profiling
    // applications).  Sampling only reads the Machine's accounting, so the
    // simulation's observable behaviour is unchanged.
    std::vector<std::unique_ptr<profiling::CpuSage>> profilers;
    if (observer) {
        for (auto& sut : bed.suts()) {
            profilers.push_back(std::make_unique<profiling::CpuSage>(
                sut->machine(), config.cpusage_interval));
            profilers.back()->start();
        }
    }

    // Interval time-series sampler (tentpole of ISSUE 10).  Like cpusage
    // it only reads counters and gauges, so the simulation's observable
    // behaviour — and every figure golden — is unchanged by sampling.
    std::unique_ptr<obs::IntervalSampler> sampler;
    if (sampling) {
        obs::SamplerSources sources;
        sources.generated = &bed.generator().stats().packets_sent;
        for (std::size_t i = 0; i < bed.suts().size(); ++i) {
            auto& sut = *bed.suts()[i];
            obs::SamplerSources::Sut src;
            src.name = sut.config().name;
            src.nic = &sut.nic();
            src.machine = &sut.machine();
            src.trace_pid = static_cast<int>(i) + 1;  // Observer pid order
            for (std::size_t a = 0; a < sut.sessions().size(); ++a) {
                obs::SamplerSources::App app;
                app.endpoint = &sut.endpoint(a);
                app.writer = sut.disk_writer(a);
                src.apps.push_back(app);
            }
            sources.suts.push_back(std::move(src));
        }
        sampler = std::make_unique<obs::IntervalSampler>(
            bed.sim(), config.sample_interval, std::move(sources), *config.timeseries,
            config.trace);
        sampler->start();
    }

    // Step 2: counters before generation.
    const auto counters_before = bed.monitor_switch().egress_counters();

    // CPU accounting snapshots bracket the generation window.
    std::vector<sim::Duration> busy_before(bed.suts().size());
    bool stopped = false;
    sim::SimTime gen_end{};
    std::vector<sim::Duration> busy_after(bed.suts().size());
    // Per sut, per app: delivered / dropped counters frozen at stop time
    // (step 5 of Figure 3.2 kills the applications `drain` after the last
    // packet; later deliveries do not count).
    std::vector<std::vector<std::uint64_t>> delivered_at_stop(bed.suts().size());
    std::vector<std::uint64_t> drops_at_stop(bed.suts().size(), 0);
    std::vector<obs::SutSnapshot> snapshots;

    bed.sim().schedule_at(sim::SimTime{} + config.warmup, [&] {
        for (std::size_t i = 0; i < bed.suts().size(); ++i)
            busy_before[i] = bed.suts()[i]->machine().total_busy();
    });

    // Step 3: generate.
    bed.generator().start(sim::SimTime{} + config.warmup, [&] {
        gen_end = bed.sim().now();
        for (std::size_t i = 0; i < bed.suts().size(); ++i)
            busy_after[i] = bed.suts()[i]->machine().total_busy();
        // Step 5: stop the capturing applications after the stop delay.
        bed.sim().schedule_in(config.drain, [&] {
            for (std::size_t i = 0; i < bed.suts().size(); ++i) {
                auto& sut = *bed.suts()[i];
                for (std::size_t a = 0; a < sut.sessions().size(); ++a) {
                    // A record spilled by the disk-writer ring was handed
                    // to the app but never persisted; it does not count as
                    // captured.  Zero without the pipeline.
                    delivered_at_stop[i].push_back(sut.delivered(a) -
                                                   sut.disk_spilled(a));
                    drops_at_stop[i] += sut.sessions()[a]->stats().ps_drop;
                }
            }
            // The sampler's final sample happens in this same event, so
            // its delta columns telescope exactly to the counters the
            // snapshots below freeze (the conservation invariant).
            if (sampler) sampler->stop();
            if (observer) {
                // Freeze the observer and snapshot every counter at the
                // same instant the headline statistics are frozen, so the
                // drop-attribution identity is exact.
                observer->freeze();
                for (std::size_t i = 0; i < bed.suts().size(); ++i) {
                    auto& sut = *bed.suts()[i];
                    obs::SutSnapshot snap;
                    snap.frames_seen = sut.nic().frames_seen();
                    snap.ring_drops = sut.nic().ring_drops();
                    snap.backlog_drops = sut.nic().backlog_drops();
                    for (std::size_t a = 0; a < sut.sessions().size(); ++a) {
                        snap.apps.push_back(sut.capture_stats(a));
                        snap.disk_spills.push_back(sut.disk_spilled(a));
                    }
                    profilers[i]->stop();
                    snap.cpu_samples = profilers[i]->samples();
                    snapshots.push_back(std::move(snap));
                }
            }
            stopped = true;
        });
    });

    while (!stopped) {
        const bool progressed = bed.sim().run(bed.sim().now() + sim::seconds(1)) > 0;
        if (!progressed && !stopped && bed.sim().queue().empty())
            throw std::logic_error("measurement: generator stalled");
    }

    // Step 4: counters after generation.
    const auto counters_after = bed.monitor_switch().egress_counters();
    const std::uint64_t generated = counters_after.packets - counters_before.packets;
    if (generated == 0) throw std::logic_error("measurement: no packets generated");

    // Step 5: collect statistics.
    RunResult result;
    result.generated = generated;
    result.offered_mbps = bed.generator().stats().achieved_mbps();
    result.events_executed = bed.sim().events_executed();
    const sim::Duration window = gen_end - (sim::SimTime{} + config.warmup);
    for (std::size_t i = 0; i < bed.suts().size(); ++i) {
        auto& sut = *bed.suts()[i];
        SutRunResult r;
        r.name = sut.config().name;
        for (std::size_t a = 0; a < sut.sessions().size(); ++a) {
            const double pct = 100.0 * static_cast<double>(delivered_at_stop[i][a]) /
                               static_cast<double>(generated);
            r.per_app_capture_pct.push_back(std::min(pct, 100.0));
        }
        r.buffer_drops = drops_at_stop[i];
        r.capture_worst_pct =
            *std::min_element(r.per_app_capture_pct.begin(), r.per_app_capture_pct.end());
        r.capture_best_pct =
            *std::max_element(r.per_app_capture_pct.begin(), r.per_app_capture_pct.end());
        double sum = 0.0;
        for (const double v : r.per_app_capture_pct) sum += v;
        r.capture_avg_pct = sum / static_cast<double>(r.per_app_capture_pct.size());
        const auto busy = busy_after[i] - busy_before[i];
        r.cpu_pct = std::min(
            100.0, 100.0 * busy.seconds() /
                       (window.seconds() * sut.machine().logical_cpus()));
        r.nic_ring_drops = sut.nic().ring_drops();
        r.backlog_drops = sut.nic().backlog_drops();
        result.suts.push_back(std::move(r));
    }
    if (observer) result.metrics = observer->finalize(snapshots, generated);
    // Re-check the conservation invariant against the independently
    // snapshotted aggregates and freeze the totals for the JSON writer.
    if (sampler) config.timeseries->finalize_against(result.metrics);
    return result;
}

RunResult run_repeated(const std::vector<SutConfig>& suts, const RunConfig& config, int reps) {
    if (reps < 1) throw std::invalid_argument("run_repeated: reps must be >= 1");
    RunResult agg;
    for (int rep = 0; rep < reps; ++rep) {
        RunConfig c = config;
        c.seed = config.seed + static_cast<std::uint64_t>(rep) * 7919;
        // The timeline and the time-series belong to a single rep
        // (overlaying reps in one sink would be meaningless); rep 0 is
        // the designated one.
        if (rep != 0) {
            c.trace = nullptr;
            c.timeseries = nullptr;
        }
        RunResult r = run_once(suts, c);
        if (rep == 0) {
            agg = std::move(r);
            continue;
        }
        agg.metrics.merge(r.metrics);
        agg.generated += r.generated;
        agg.offered_mbps += r.offered_mbps;
        agg.events_executed += r.events_executed;  // total across reps

        for (std::size_t i = 0; i < agg.suts.size(); ++i) {
            auto& a = agg.suts[i];
            const auto& b = r.suts[i];
            a.capture_worst_pct += b.capture_worst_pct;
            a.capture_avg_pct += b.capture_avg_pct;
            a.capture_best_pct += b.capture_best_pct;
            a.cpu_pct += b.cpu_pct;
            a.nic_ring_drops += b.nic_ring_drops;
            a.backlog_drops += b.backlog_drops;
            a.buffer_drops += b.buffer_drops;
            for (std::size_t j = 0; j < a.per_app_capture_pct.size(); ++j)
                a.per_app_capture_pct[j] += b.per_app_capture_pct[j];
        }
    }
    const auto n = static_cast<double>(reps);
    agg.generated /= static_cast<std::uint64_t>(reps);
    agg.offered_mbps /= n;
    for (auto& s : agg.suts) {
        s.capture_worst_pct /= n;
        s.capture_avg_pct /= n;
        s.capture_best_pct /= n;
        s.cpu_pct /= n;
        for (auto& v : s.per_app_capture_pct) v /= n;
    }
    return agg;
}

}  // namespace capbench::harness
