#include "capbench/scenario/registry.hpp"

#include <ostream>

#include "capbench/capture/os.hpp"
#include "capbench/harness/report.hpp"
#include "capbench/load/minideflate.hpp"

namespace capbench::scenario {

namespace {

using harness::RunConfig;
using harness::SutConfig;

using SutBuilder = std::function<std::vector<SutConfig>()>;
using Tweak = std::function<void(RunConfig&)>;

/// The (a)/(b) sub-figure pair: the same roster in single- and
/// dual-processor mode (Section 6.1's "number of processors" variable).
std::vector<Variant> both_modes(const SutBuilder& dual, const Tweak& tweak = nullptr) {
    const SutBuilder single = [dual] {
        auto suts = dual();
        harness::apply_single_cpu(suts);
        return suts;
    };
    return {Variant{"single processor mode", "(a)", single, tweak},
            Variant{"dual processor mode", "(b)", dual, tweak}};
}

std::vector<Variant> smp_only(const SutBuilder& suts, const Tweak& tweak = nullptr) {
    return {Variant{"", "", suts, tweak}};
}

std::vector<SutConfig> increased_buffer_suts() {
    auto suts = harness::standard_suts();
    harness::apply_increased_buffers(suts);
    return suts;
}

SutBuilder multiapp_suts(int app_count) {
    return [app_count] {
        auto suts = increased_buffer_suts();
        for (auto& sut : suts) sut.app_count = app_count;
        return suts;
    };
}

SutBuilder loaded_suts(const std::function<void(SutConfig&)>& mutate) {
    return [mutate] {
        auto suts = increased_buffer_suts();
        for (auto& sut : suts) mutate(sut);
        return suts;
    };
}

Scenario sweep_scenario(std::string id, std::string caption, std::vector<Variant> variants,
                        bool multi_app = false) {
    Scenario s;
    s.id = std::move(id);
    s.caption = std::move(caption);
    s.axis = Axis::kRateMbps;
    s.sweep = harness::default_rate_grid();
    s.multi_app = multi_app;
    s.variants = std::move(variants);
    return s;
}

Scenario custom_scenario(std::string id, std::string caption,
                         std::function<CustomResult()> build) {
    Scenario s;
    s.id = std::move(id);
    s.caption = std::move(caption);
    s.custom = std::move(build);
    return s;
}

std::vector<Scenario> build_registry() {
    std::vector<Scenario> all;

    // ---- Chapter 4: the workload and the generator -------------------
    all.push_back(custom_scenario(
        "fig_4_1",
        "Packet size distribution of the (synthetic) 24h MWN trace; most frequent sizes "
        "at 40, 52 and 1500 bytes",
        detail::fig_4_1_table));
    all.push_back(custom_scenario(
        "fig_4_2",
        "Relative frequency of the top 20 packet sizes and their cumulative share",
        detail::fig_4_2_table));
    all.push_back(custom_scenario(
        "fig_4_4",
        "Maximum achievable data rate [Mbit/s] of the enhanced pktgen by NIC and packet "
        "size (no inter-packet gap)",
        detail::fig_4_4_table));

    // ---- Chapter 6: the evaluation -----------------------------------
    {
        auto s = sweep_scenario("fig_6_2", "default buffers, 1 app, no filter, no load",
                                both_modes(harness::standard_suts));
        s.preamble = [](std::ostream& out) {
            out << "Systems under test (Figure 2.4):\n";
            harness::print_sut_inventory(out, harness::standard_suts());
        };
        all.push_back(std::move(s));
    }
    all.push_back(sweep_scenario("fig_6_3", "increased buffers, 1 app, no filter, no load",
                                 both_modes(increased_buffer_suts)));
    {
        Scenario s;
        s.id = "fig_6_4";
        s.caption = "capture rate vs. buffer size at maximum data rate (buffer halved for "
                    "FreeBSD's double buffer)";
        s.axis = Axis::kBufferKb;
        s.sweep = {128,  256,   512,   1024,  2048,   4096,
                   8192, 16384, 32768, 65536, 131072, 262144};
        s.variants = both_modes(harness::standard_suts);
        all.push_back(std::move(s));
    }
    {
        auto s = sweep_scenario(
            "fig_6_6", "50-instruction BPF filter, increased buffers",
            both_modes(loaded_suts([](SutConfig& sut) {
                           sut.filter_expression = harness::fig_6_5_filter_expression();
                       }),
                       [](RunConfig& cfg) {
                           cfg.full_bytes = true;  // the filter inspects real contents
                       }));
        s.preamble = detail::fig_6_6_preamble;
        all.push_back(std::move(s));
    }
    all.push_back(sweep_scenario("fig_6_7", "2 capturing applications, SMP, increased buffers",
                                 smp_only(multiapp_suts(2)), /*multi_app=*/true));
    all.push_back(sweep_scenario("fig_6_8", "4 capturing applications, SMP, increased buffers",
                                 smp_only(multiapp_suts(4)), /*multi_app=*/true));
    all.push_back(sweep_scenario("fig_6_9", "8 capturing applications, SMP, increased buffers",
                                 smp_only(multiapp_suts(8)), /*multi_app=*/true));
    all.push_back(sweep_scenario(
        "fig_6_10", "50 packet copies per packet, increased buffers",
        both_modes(loaded_suts([](SutConfig& sut) { sut.app_load.memcpy_count = 50; }))));
    {
        auto s = sweep_scenario(
            "fig_6_11", "zlib-level-3 compression per packet",
            both_modes(loaded_suts([](SutConfig& sut) { sut.app_load.compress_level = 3; })));
        s.preamble = [](std::ostream& out) {
            out << "MiniDeflate cost: level 3 = " << load::compression_cycles_per_byte(3)
                << " cycles/byte, level 9 = " << load::compression_cycles_per_byte(9)
                << " cycles/byte\n";
        };
        all.push_back(std::move(s));
    }
    all.push_back(sweep_scenario("fig_6_12", "pipe whole packets to gzip -3, SMP",
                                 smp_only(loaded_suts([](SutConfig& sut) {
                                     sut.app_load.pipe_to_gzip = true;
                                     sut.app_load.pipe_gzip_level = 3;
                                 }))));
    all.push_back(custom_scenario(
        "fig_6_13", "maximum disk write speed and CPU usage per system (bonnie++)",
        detail::fig_6_13_table));
    all.push_back(sweep_scenario(
        "fig_6_14", "write first 76 bytes of every packet to disk",
        both_modes(loaded_suts([](SutConfig& sut) { sut.app_load.disk_bytes_per_packet = 76; }))));
    all.push_back(sweep_scenario("fig_6_15", "mmap libpcap vs. stock, Linux systems",
                                 both_modes([] {
                                     std::vector<SutConfig> suts;
                                     for (const auto* name : {"swan", "snipe"}) {
                                         auto stock = harness::standard_sut(name);
                                         stock.buffer_bytes = 128ull * 1024 * 1024;
                                         auto mmap = stock;
                                         mmap.name = std::string(name) + "-mmap";
                                         mmap.stack = harness::StackKind::kMmap;
                                         suts.push_back(std::move(stock));
                                         suts.push_back(std::move(mmap));
                                     }
                                     return suts;
                                 })));
    all.push_back(sweep_scenario("fig_6_16", "Hyperthreading on/off, Intel systems, SMP",
                                 smp_only([] {
                                     std::vector<SutConfig> suts;
                                     for (const auto* name : {"snipe", "flamingo"}) {
                                         auto off = harness::standard_sut(name);
                                         off.buffer_bytes =
                                             off.os->family == capture::OsFamily::kFreeBsd
                                                 ? 10ull * 1024 * 1024
                                                 : 128ull * 1024 * 1024;
                                         auto on = off;
                                         on.name = std::string(name) + "-HT";
                                         on.hyperthreading = true;
                                         suts.push_back(std::move(off));
                                         suts.push_back(std::move(on));
                                     }
                                     return suts;
                                 })));

    // ---- Appendix B --------------------------------------------------
    all.push_back(sweep_scenario("fig_b_1", "FreeBSD 5.4 vs. 5.2.1, SMP, increased buffers",
                                 smp_only([] {
                                     std::vector<SutConfig> suts;
                                     for (const auto* name : {"moorhen", "flamingo"}) {
                                         auto v54 = harness::standard_sut(name);
                                         v54.buffer_bytes = 10ull * 1024 * 1024;
                                         auto v521 = v54;
                                         v521.name = std::string(name) + "-5.2.1";
                                         v521.os = &capture::OsSpec::freebsd_5_2_1();
                                         suts.push_back(std::move(v54));
                                         suts.push_back(std::move(v521));
                                     }
                                     return suts;
                                 })));
    all.push_back(sweep_scenario(
        "fig_b_2", "25 packet copies per packet, increased buffers",
        both_modes(loaded_suts([](SutConfig& sut) { sut.app_load.memcpy_count = 25; }))));
    all.push_back(sweep_scenario(
        "fig_b_3", "zlib-level-9 compression per packet, SMP",
        smp_only(loaded_suts([](SutConfig& sut) { sut.app_load.compress_level = 9; }))));

    // ---- Extensions (Section 7.2 future work) and ablations ----------
    {
        Scenario s = sweep_scenario(
            "ext_10gbe", "capture rate on a 10-Gigabit link (future work, Section 7.2)",
            smp_only(increased_buffer_suts,
                     [](RunConfig& cfg) { cfg.link_gbps = 10.0; }));
        s.sweep.clear();
        for (double r = 500; r <= 9500; r += 1000) s.sweep.push_back(r);
        s.postscript =
            "Even the best 2005 commodity system saturates near 1 Gbit/s of this load;\n"
            "10GbE capture needs faster buses/disks or load distribution (Section 7.2).";
        all.push_back(std::move(s));
    }
    {
        Scenario s;
        s.id = "ext_distributed";
        s.caption = "aggregate capture on a 10-Gigabit link: one sniffer vs. four behind a "
                    "round-robin distributor (future work, Section 7.2)";
        s.axis = Axis::kRateMbps;
        for (double r = 1000; r <= 9000; r += 1000) s.sweep.push_back(r);
        s.variants = {
            Variant{"one moorhen takes the whole stream", "-1x",
                    [] {
                        std::vector<SutConfig> suts{harness::standard_sut("moorhen")};
                        harness::apply_increased_buffers(suts);
                        return suts;
                    },
                    [](RunConfig& cfg) { cfg.link_gbps = 10.0; }},
            Variant{"four moorhens behind a round-robin distributor", "-4x",
                    [] {
                        std::vector<SutConfig> suts;
                        for (int i = 0; i < 4; ++i) {
                            auto sut = harness::standard_sut("moorhen");
                            sut.name = "moorhen" + std::to_string(i);
                            sut.buffer_bytes = 10ull << 20;
                            suts.push_back(std::move(sut));
                        }
                        return suts;
                    },
                    [](RunConfig& cfg) {
                        cfg.link_gbps = 10.0;
                        cfg.distribute_round_robin = true;
                    }},
        };
        s.postscript =
            "Each distributed sniffer sees a quarter of the stream, so its capture rate is\n"
            "relative to the full stream; the fleet's aggregate is the per-SUT sum.\n"
            "Distribution multiplies the capture ceiling by the fan-out — the thesis's\n"
            "proposed way of conquering bandwidths one machine cannot handle.";
        all.push_back(std::move(s));
    }
    all.push_back(sweep_scenario(
        "ext_zerocopy_bpf", "zero-copy (mmap) BPF vs. stock double buffer, FreeBSD",
        both_modes([] {
            std::vector<SutConfig> suts;
            for (const auto* name : {"moorhen", "flamingo"}) {
                auto stock = harness::standard_sut(name);
                stock.buffer_bytes = 10ull << 20;
                auto zc = stock;
                zc.name = std::string(name) + "-zc";
                zc.stack = harness::StackKind::kZeroCopyBpf;
                suts.push_back(std::move(stock));
                suts.push_back(std::move(zc));
            }
            return suts;
        })));
    {
        // Multi-queue RSS receive (the modern answer to Section 7.2's "one
        // machine cannot keep up"): sweep queue/core count at a fixed
        // overload and watch the capture rate scale — or not, when the
        // indirection table is skewed or the apps share a fanout cluster.
        Scenario s;
        s.id = "ext_multiqueue";
        s.caption = "multi-queue RSS receive: capture rate vs. queue/core count at overload "
                    "(future work, Section 7.2)";
        s.axis = Axis::kQueues;
        s.sweep = {1, 2, 4, 8};
        s.multi_app = true;
        const SutBuilder mq_suts = [] {
            std::vector<SutConfig> suts{harness::standard_sut("swan"),
                                        harness::standard_sut("moorhen")};
            harness::apply_increased_buffers(suts);
            return suts;
        };
        const auto mq_tweak = [](double gbps, double rate) {
            return [gbps, rate](RunConfig& cfg) {
                cfg.link_gbps = gbps;
                cfg.rate_mbps = rate;
                cfg.flow_count = 4096;  // spread flows across the RSS table
            };
        };
        s.variants = {
            Variant{"balanced RSS, 10 Gbit/s offered", "-10g", mq_suts, mq_tweak(10.0, 9500)},
            Variant{"balanced RSS, 40 Gbit/s offered", "-40g", mq_suts, mq_tweak(40.0, 38000)},
            Variant{"skewed indirection (3/4 of entries on queue 0), 10 Gbit/s", "-skew",
                    [mq_suts] {
                        auto suts = mq_suts();
                        for (auto& sut : suts) sut.nic.indirection_skew = 0.75;
                        return suts;
                    },
                    mq_tweak(10.0, 9500)},
            Variant{"queue fanout: 4 apps, each pinned to one queue, 10 Gbit/s", "-qfan",
                    [mq_suts] {
                        auto suts = mq_suts();
                        for (auto& sut : suts) {
                            sut.app_count = 4;
                            sut.fanout = capture::FanoutMode::kQueue;
                        }
                        return suts;
                    },
                    mq_tweak(10.0, 9500)},
            Variant{"cluster fanout: 4 apps, flow-hash spread, 10 Gbit/s", "-cfan",
                    [mq_suts] {
                        auto suts = mq_suts();
                        for (auto& sut : suts) {
                            sut.app_count = 4;
                            sut.fanout = capture::FanoutMode::kCluster;
                        }
                        return suts;
                    },
                    mq_tweak(10.0, 9500)},
        };
        s.postscript =
            "Each point gives every sniffer N cores and N receive queues (queue i's IRQ on\n"
            "CPU i).  Balanced RSS scales the capture rate with the queue count until\n"
            "another bottleneck binds; the skewed indirection table funnels 3/4 of the\n"
            "flows through queue 0 and gives most of the parallelism back.  Queue/cluster\n"
            "fanout splits the stream across 4 applications, so per-app capture is\n"
            "relative to the full stream (the fleet aggregate is the per-app sum).";
        all.push_back(std::move(s));
    }
    all.push_back(custom_scenario(
        "ext_filter_tiers",
        "BPF execution tiers: interpreter vs. native jit, "
        "fig-6.5-style filter cost sweep (host time)",
        detail::ext_filter_tiers_table));
    {
        // exact-capture's listener/writer split on the fig-6.14 workload
        // (76-byte header trace): the capture thread hands arena-backed
        // records through a fixed bring ring to a per-app writer thread
        // instead of paying the write inline.  The spill policy decides
        // what a full ring does: block (lossless back-pressure) or drop
        // (counted in the disk_spill bucket).
        Scenario s;
        s.id = "ext_disk_writer";
        s.caption = "capture-to-disk writer pipeline: bring-ring hand-off vs. inline "
                    "write, 76-byte header trace (ring depth x spill policy)";
        s.axis = Axis::kRateMbps;
        s.sweep = harness::default_rate_grid();
        const auto dw_suts = [](bool enabled, std::size_t slots,
                                load::SpillPolicy spill) -> SutBuilder {
            return [enabled, slots, spill] {
                auto suts = increased_buffer_suts();
                for (auto& sut : suts) {
                    sut.app_load.disk_bytes_per_packet = 76;
                    sut.disk_writer.enabled = enabled;
                    sut.disk_writer.ring_slots = slots;
                    sut.disk_writer.spill = spill;
                }
                return suts;
            };
        };
        s.variants = {
            Variant{"inline write on the capture thread (classic)", "-inline",
                    dw_suts(false, 256, load::SpillPolicy::kBlock), nullptr},
            Variant{"writer thread, 256-slot ring, block on full", "-ring256",
                    dw_suts(true, 256, load::SpillPolicy::kBlock), nullptr},
            Variant{"writer thread, 32-slot ring, drop-newest", "-ring32-dropnew",
                    dw_suts(true, 32, load::SpillPolicy::kDropNewest), nullptr},
            Variant{"writer thread, 32-slot ring, drop-oldest", "-ring32-dropold",
                    dw_suts(true, 32, load::SpillPolicy::kDropOldest), nullptr},
        };
        s.postscript =
            "The inline variant charges write() + per-byte disk cost on the capture\n"
            "thread (the classic fig-6.14 model).  The ring variants move that cost to a\n"
            "cold writer thread; a full ring either back-pressures the capture thread\n"
            "(block) or spills records, which count against capture as `disk_spill`\n"
            "drops — delivered + all drop buckets still sums exactly to generated.";
        all.push_back(std::move(s));
    }
    {
        // Square-wave overload pulses (the ISSUE 10 telemetry workload):
        // every 20 ms the generator multiplies its target rate by 10 for
        // 5 ms, so a sampled run shows clean bursts of drops separated by
        // healthy recovery — the shape the OverloadDetector must carve
        // into episodes aligned with the bursts.
        Scenario s;
        s.id = "ext_overload_pulse";
        s.caption = "square-wave overload pulses: periodic 10x bursts over a steady base "
                    "rate (interval-telemetry workload)";
        s.axis = Axis::kRateMbps;
        s.sweep = {80, 160, 240};
        s.variants = {Variant{"", "", [] {
                                  std::vector<SutConfig> suts{
                                      harness::standard_sut("swan"),
                                      harness::standard_sut("moorhen")};
                                  return suts;
                              },
                              [](RunConfig& cfg) {
                                  cfg.burst_period = sim::milliseconds(20);
                                  cfg.burst_duration = sim::milliseconds(5);
                                  cfg.burst_multiplier = 10.0;
                              }}};
        s.postscript =
            "The base rates are comfortable; the 10x bursts are not.  With\n"
            "--timeseries the per-interval drop deltas light up during each burst and\n"
            "the overload detector coalesces them into episodes (one per burst at a\n"
            "fine enough CAPBENCH_SAMPLE_INTERVAL); delivered + drops still sums\n"
            "exactly to generated, interval by interval.";
        all.push_back(std::move(s));
    }
    {
        // Receive livelock is a single-processor phenomenon: the interrupts
        // and the starved application compete for the same CPU (Section 2.2.1).
        auto s = sweep_scenario(
            "ablation_livelock",
            "interrupt moderation on vs. off (one interrupt per packet), single CPU",
            smp_only([] {
                std::vector<SutConfig> suts;
                for (const auto* name : {"swan", "moorhen"}) {
                    auto normal = harness::standard_sut(name);
                    normal.buffer_bytes = name[0] == 's' ? 128ull << 20 : 10ull << 20;
                    auto livelock = normal;
                    livelock.name = std::string(name) + "-noNAPI";
                    livelock.nic.interrupt_moderation = false;
                    suts.push_back(std::move(normal));
                    suts.push_back(std::move(livelock));
                }
                harness::apply_single_cpu(suts);
                return suts;
            }));
        all.push_back(std::move(s));
    }

    return all;
}

}  // namespace

const std::vector<Scenario>& registry() {
    static const std::vector<Scenario> all = build_registry();
    return all;
}

const Scenario* find_scenario(const std::string& id) {
    for (const auto& s : registry())
        if (s.id == id) return &s;
    return nullptr;
}

}  // namespace capbench::scenario
