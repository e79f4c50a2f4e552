#include "capbench/obs/timeseries.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <string>

#include "capbench/capture/nic.hpp"
#include "capbench/capture/tap.hpp"
#include "capbench/hostsim/machine.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/obs/trace.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::obs {

std::int64_t Series::sum() const {
    return std::accumulate(values_.begin(), values_.end(), std::int64_t{0});
}

std::int64_t Series::max() const {
    std::int64_t best = 0;
    for (const std::int64_t v : values_) best = std::max(best, v);
    return best;
}

std::int64_t SutSeries::overload_loss_at(std::size_t k) const {
    std::int64_t loss = drop_nic_ring.at(k) + drop_backlog.at(k);
    for (const AppSeries& a : apps) loss += a.drop_bpf_store.at(k) + a.drop_disk_spill.at(k);
    return loss;
}

namespace {

void check_sum(const char* what, std::int64_t sum, std::uint64_t aggregate) {
    if (sum < 0 || static_cast<std::uint64_t>(sum) != aggregate)
        throw std::logic_error(std::string("timeseries conservation violated: Σ") + what +
                               " deltas = " + std::to_string(sum) + " but finalize aggregate = " +
                               std::to_string(aggregate));
}

/// Peak fill percentage across the SUT's bounded stores at interval k.
std::int64_t occupancy_pct_at(const SutSeries& s, std::size_t k) {
    std::int64_t pct = 0;
    if (s.nic_ring_capacity > 0)
        for (const QueueSeries& q : s.queues)
            pct = std::max(pct, q.ring_occupancy.at(k) * 100 /
                                    static_cast<std::int64_t>(s.nic_ring_capacity));
    for (std::size_t a = 0; a < s.apps.size(); ++a) {
        if (s.app_buffer_capacity[a] > 0)
            pct = std::max(pct, s.apps[a].buffer_occupancy.at(k) * 100 /
                                    static_cast<std::int64_t>(s.app_buffer_capacity[a]));
        if (s.app_disk_ring_capacity[a] > 0)
            pct = std::max(pct, s.apps[a].disk_ring.at(k) * 100 /
                                    static_cast<std::int64_t>(s.app_disk_ring_capacity[a]));
    }
    return pct;
}

/// Classifies every interval and coalesces dropping runs into episodes.
void run_overload_detector(TimeSeries& ts) {
    const std::size_t n = ts.sample_count();
    for (SutSeries& s : ts.suts) {
        struct SiteSum {
            const char* name;
            std::int64_t sum;
        };
        std::array<SiteSum, 4> sites{};  // filled per episode below
        OverloadEpisode open{};
        bool in_episode = false;
        const auto close = [&] {
            const SiteSum* best = &sites[0];
            for (const SiteSum& cand : sites)
                if (cand.sum > best->sum) best = &cand;
            open.dominant_site = best->name;
            s.episodes.push_back(open);
            in_episode = false;
        };
        for (std::size_t k = 0; k < n; ++k) {
            const std::int64_t loss = s.overload_loss_at(k);
            const std::int64_t occ = occupancy_pct_at(s, k);
            IntervalClass cls = IntervalClass::kHealthy;
            if (loss > 0)
                cls = IntervalClass::kDropping;
            else if (occ >= kSaturatedOccupancyPct)
                cls = IntervalClass::kSaturated;
            s.classification.push(static_cast<std::int64_t>(cls));
            if (cls != IntervalClass::kDropping) {
                if (in_episode) close();
                continue;
            }
            if (!in_episode) {
                in_episode = true;
                open = OverloadEpisode{};
                open.first_interval = k;
                open.start_ns = k == 0 ? 0 : ts.time_ns.at(k - 1);
                // kDropSites order decides ties (first wins on equal sums).
                sites = {{{kDropSites[0].name, 0},   // nic_ring
                          {kDropSites[1].name, 0},   // backlog
                          {kDropSites[3].name, 0},   // bpf_store
                          {kDropSites[5].name, 0}}}; // disk_spill
            }
            open.end_ns = ts.time_ns.at(k);
            open.intervals = k - open.first_interval + 1;
            open.dropped += static_cast<std::uint64_t>(loss);
            open.peak_occupancy_pct = std::max(open.peak_occupancy_pct, occ);
            sites[0].sum += s.drop_nic_ring.at(k);
            sites[1].sum += s.drop_backlog.at(k);
            for (const AppSeries& a : s.apps) {
                sites[2].sum += a.drop_bpf_store.at(k);
                sites[3].sum += a.drop_disk_spill.at(k);
            }
        }
        if (in_episode) close();
    }
}

}  // namespace

void TimeSeries::finalize_against(const RunMetrics& metrics) {
    if (!metrics.enabled)
        throw std::logic_error("TimeSeries::finalize_against: metrics not collected");
    if (metrics.suts.size() != suts.size())
        throw std::logic_error("TimeSeries::finalize_against: SUT count mismatch");
    check_sum("generated", generated.sum(), metrics.generated);
    generated_total = metrics.generated;
    totals.clear();
    for (std::size_t s = 0; s < suts.size(); ++s) {
        const SutSeries& ss = suts[s];
        const SutMetrics& sm = metrics.suts[s];
        if (sm.apps.size() != ss.apps.size())
            throw std::logic_error("TimeSeries::finalize_against: app count mismatch");
        SutTotals st;
        for (std::size_t a = 0; a < ss.apps.size(); ++a) {
            const AppSeries& as = ss.apps[a];
            const AppMetrics& am = sm.apps[a];
            check_sum("delivered", as.delivered.sum(), am.delivered);
            check_sum("nic_ring", ss.drop_nic_ring.sum(), am.drop_nic_ring);
            check_sum("backlog", ss.drop_backlog.sum(), am.drop_backlog);
            check_sum("verdict", as.drop_verdict.sum(), am.drop_verdict);
            check_sum("bpf_store", as.drop_bpf_store.sum(), am.drop_bpf_store);
            check_sum("fanout", as.drop_fanout.sum(), am.drop_fanout);
            check_sum("disk_spill", as.drop_disk_spill.sum(), am.drop_disk_spill);
            check_sum("drain", as.drain.sum(), am.drop_drain);
            AppTotals at;
            at.delivered = am.delivered;
            for (std::size_t d = 0; d < kDropSites.size(); ++d)
                at.drops[d] = am.*kDropSites[d].member;
            st.apps.push_back(at);
        }
        totals.push_back(std::move(st));
    }
    finalized = true;
}

IntervalSampler::IntervalSampler(sim::Simulator& sim, sim::Duration interval,
                                 SamplerSources sources, TimeSeries& out, TraceSink* trace)
    : sim_(&sim),
      interval_(interval),
      sources_(std::move(sources)),
      out_(&out),
      trace_(trace) {
    if (interval_.ns() <= 0)
        throw std::invalid_argument("IntervalSampler: interval must be positive");
    if (sources_.generated == nullptr)
        throw std::invalid_argument("IntervalSampler: generated counter missing");
    out_->interval = interval_;
    if (trace_) {
        trace_->set_process_name(0, "pktgen");
        trace_->set_thread_name(0, kSamplerTid, "timeseries");
        trace_generated_ = trace_->intern("ts:generated/ivl");
    }
    for (const SamplerSources::Sut& src : sources_.suts) {
        SutSeries ss;
        ss.name = src.name;
        ss.nic_ring_capacity = src.nic->ring_capacity();
        ss.queues.resize(static_cast<std::size_t>(src.nic->queue_count()));
        ss.cpus.resize(static_cast<std::size_t>(src.machine->logical_cpus()));
        ss.apps.resize(src.apps.size());
        PrevSut prev;
        prev.apps.resize(src.apps.size());
        prev.cpus.resize(ss.cpus.size());
        TraceNames names;
        for (const SamplerSources::App& app : src.apps) {
            ss.app_buffer_capacity.push_back(app.endpoint->buffer_capacity());
            ss.app_disk_ring_capacity.push_back(
                app.writer != nullptr ? app.writer->config().ring_slots : 0);
        }
        if (trace_) {
            trace_->set_thread_name(src.trace_pid, kSamplerTid, "timeseries");
            for (std::size_t j = 0; j < ss.queues.size(); ++j)
                names.queue_ring.push_back(
                    trace_->intern("ts:q" + std::to_string(j) + ".ring"));
            for (std::size_t c = 0; c < ss.cpus.size(); ++c) {
                const std::string cpu = "ts:cpu" + std::to_string(c);
                names.cpu_backlog.push_back(trace_->intern(cpu + ".backlog"));
                names.cpu_user_pct.push_back(trace_->intern(cpu + ".user_pct"));
                names.cpu_system_pct.push_back(trace_->intern(cpu + ".system_pct"));
                names.cpu_irq_pct.push_back(trace_->intern(cpu + ".irq_pct"));
            }
            for (std::size_t a = 0; a < src.apps.size(); ++a) {
                const std::string app = "ts:app" + std::to_string(a);
                names.app_buffer.push_back(trace_->intern(app + ".buffer"));
                names.app_disk_ring.push_back(trace_->intern(app + ".diskring"));
                names.app_delivered.push_back(trace_->intern(app + ".delivered/ivl"));
            }
            names.losses = trace_->intern("ts:overload_losses/ivl");
        }
        out_->suts.push_back(std::move(ss));
        prev_.push_back(std::move(prev));
        trace_names_.push_back(std::move(names));
    }
}

void IntervalSampler::start() {
    if (running_) return;
    running_ = true;
    sim_->schedule_in(interval_, [this] { tick(); });
}

void IntervalSampler::tick() {
    if (!running_) return;
    sample_now();
    sim_->schedule_in(interval_, [this] { tick(); });
}

void IntervalSampler::stop() {
    if (!running_) return;
    running_ = false;
    // The freeze-instant sample: taken inside the same event that freezes
    // the aggregate counters, so every delta column telescopes exactly.
    sample_now();
    run_overload_detector(*out_);
    if (trace_) {
        const char* cat = trace_->intern("overload");
        for (std::size_t s = 0; s < out_->suts.size(); ++s)
            for (const OverloadEpisode& ep : out_->suts[s].episodes)
                trace_->complete(sources_.suts[s].trace_pid, kSamplerTid,
                                 trace_->intern(std::string("overload:") + ep.dominant_site),
                                 cat, sim::SimTime{ep.start_ns}, sim::SimTime{ep.end_ns});
    }
}

void IntervalSampler::sample_now() {
    const sim::SimTime now = sim_->now();
    const std::int64_t dt = now.ns() - last_sample_.ns();
    out_->time_ns.push(now.ns());
    const std::uint64_t gen = *sources_.generated;
    const auto gen_delta = static_cast<std::int64_t>(gen - prev_generated_);
    prev_generated_ = gen;
    out_->generated.push(gen_delta);
    if (trace_) trace_->counter(0, kSamplerTid, trace_generated_, now, gen_delta);

    for (std::size_t s = 0; s < sources_.suts.size(); ++s) {
        const SamplerSources::Sut& src = sources_.suts[s];
        SutSeries& ss = out_->suts[s];
        PrevSut& ps = prev_[s];
        const TraceNames& names = trace_names_[s];

        const std::uint64_t ring_total = src.nic->ring_drops();
        const std::uint64_t backlog_total = src.nic->backlog_drops();
        const auto ring_delta = static_cast<std::int64_t>(ring_total - ps.ring_drops);
        const auto backlog_delta = static_cast<std::int64_t>(backlog_total - ps.backlog_drops);
        ps.ring_drops = ring_total;
        ps.backlog_drops = backlog_total;
        ss.drop_nic_ring.push(ring_delta);
        ss.drop_backlog.push(backlog_delta);

        for (std::size_t j = 0; j < ss.queues.size(); ++j) {
            const auto occ =
                static_cast<std::int64_t>(src.nic->queue_ring_occupancy(static_cast<int>(j)));
            ss.queues[j].ring_occupancy.push(occ);
            if (trace_) trace_->counter(src.trace_pid, kSamplerTid, names.queue_ring[j], now, occ);
        }

        for (std::size_t c = 0; c < ss.cpus.size(); ++c) {
            CpuSeries& cs = ss.cpus[c];
            PrevCpu& pc = ps.cpus[c];
            const auto backlog =
                static_cast<std::int64_t>(src.machine->kernel_queue_len(static_cast<int>(c)));
            cs.backlog_len.push(backlog);
            const hostsim::Cpu& cpu = src.machine->cpu(static_cast<int>(c));
            const std::int64_t user = cpu.in_state(hostsim::CpuState::kUser).ns();
            const std::int64_t system = cpu.in_state(hostsim::CpuState::kSystem).ns();
            const std::int64_t irq = cpu.in_state(hostsim::CpuState::kInterrupt).ns();
            const std::int64_t du = user - pc.user_ns;
            const std::int64_t ds = system - pc.system_ns;
            const std::int64_t di = irq - pc.interrupt_ns;
            pc.user_ns = user;
            pc.system_ns = system;
            pc.interrupt_ns = irq;
            cs.user_ns.push(du);
            cs.system_ns.push(ds);
            cs.interrupt_ns.push(di);
            cs.idle_ns.push(std::max<std::int64_t>(0, dt - (du + ds + di)));
            if (trace_) {
                trace_->counter(src.trace_pid, kSamplerTid, names.cpu_backlog[c], now, backlog);
                if (dt > 0) {
                    trace_->counter(src.trace_pid, kSamplerTid, names.cpu_user_pct[c], now,
                                    du * 100 / dt);
                    trace_->counter(src.trace_pid, kSamplerTid, names.cpu_system_pct[c], now,
                                    ds * 100 / dt);
                    trace_->counter(src.trace_pid, kSamplerTid, names.cpu_irq_pct[c], now,
                                    di * 100 / dt);
                }
            }
        }

        for (std::size_t a = 0; a < ss.apps.size(); ++a) {
            const SamplerSources::App& app = src.apps[a];
            AppSeries& as = ss.apps[a];
            const AppCounts counts = attribute_drops(
                app.endpoint->stats(), ring_total, backlog_total,
                app.writer != nullptr ? app.writer->spilled() : 0, gen);
            AppCounts& prev = ps.apps[a];
            // Unsigned differences cast to int64: drain may shrink.
            const auto push_delta = [&](Series& series, std::size_t d) {
                series.push(static_cast<std::int64_t>(counts.drops[d] - prev.drops[d]));
            };
            as.delivered.push(static_cast<std::int64_t>(counts.delivered - prev.delivered));
            push_delta(as.drop_verdict, drop_index("verdict"));
            push_delta(as.drop_bpf_store, drop_index("bpf_store"));
            push_delta(as.drop_fanout, drop_index("fanout"));
            push_delta(as.drop_disk_spill, drop_index("disk_spill"));
            push_delta(as.drain, drop_index("drain"));
            prev = counts;
            const auto buffer = static_cast<std::int64_t>(app.endpoint->buffer_occupancy());
            const auto disk_ring = static_cast<std::int64_t>(
                app.writer != nullptr ? app.writer->ring_occupancy() : 0);
            as.buffer_occupancy.push(buffer);
            as.disk_ring.push(disk_ring);
            const std::size_t k = as.delivered.size() - 1;
            if (trace_) {
                trace_->counter(src.trace_pid, kSamplerTid, names.app_buffer[a], now, buffer);
                trace_->counter(src.trace_pid, kSamplerTid, names.app_disk_ring[a], now,
                                disk_ring);
                trace_->counter(src.trace_pid, kSamplerTid, names.app_delivered[a], now,
                                as.delivered.at(k));
            }
        }
        if (trace_)
            trace_->counter(src.trace_pid, kSamplerTid, names.losses, now,
                            ss.overload_loss_at(ss.drop_nic_ring.size() - 1));
    }
    last_sample_ = now;
}

}  // namespace capbench::obs
