#include "capbench/harness/testbed.hpp"

#include "capbench/obs/observer.hpp"

namespace capbench::harness {

Testbed::Testbed(TestbedConfig config) {
    link_ = std::make_unique<net::Link>(sim_, config.link_gbps);
    config.gen.link_gbps = config.link_gbps;
    gen_ = std::make_unique<pktgen::Generator>(sim_, *link_, config.gen_nic,
                                               std::move(config.gen), arena_);
    if (config.observer != nullptr) gen_->register_metrics(config.observer->registry());
    link_->attach(switch_);
    net::FrameSink& fan_out =
        config.distribute_round_robin ? static_cast<net::FrameSink&>(distributor_)
                                      : static_cast<net::FrameSink&>(splitter_);
    switch_.attach_monitor(fan_out);
    for (auto& sut_config : config.suts) {
        suts_.push_back(std::make_unique<Sut>(sim_, std::move(sut_config), config.observer));
        if (config.distribute_round_robin)
            distributor_.attach(suts_.back()->nic_sink());
        else
            splitter_.attach(suts_.back()->nic_sink());
    }
}

void Testbed::start_suts() {
    for (auto& sut : suts_) sut->start();
}

}  // namespace capbench::harness
