// Metrics registry for the observability layer: an ordered list of
// read-only views onto counts the components already keep.
//
// Components that publish run-level counts — the packet generator's
// GenStats, each machine's scheduler counts, the NIC's per-queue counters,
// each endpoint's CaptureStats, a disk writer's spills — register a view
// of their own field at SETUP time.  Nothing is counted twice and the hot
// paths carry no registry code; snapshot() reads every view in
// registration order, so the capbench.metrics.v1 `counters` object is
// byte-stable across runs, `--jobs` values and event-queue backends.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace capbench::obs {

/// One per measurement run (never shared across sweep points), so no
/// synchronization is needed and parallel sweeps stay bit-identical.
/// Names are unique by construction: each is prefixed by its component
/// and SUT, and Observer::add_sut rejects a repeated SUT name.
class Registry {
public:
    /// Registers a view of `count` under `name`.  The count stays owned by
    /// its component, which must outlive every snapshot().
    void add(std::string name, const std::uint64_t& count) {
        views_.emplace_back(std::move(name), &count);
    }

    [[nodiscard]] std::size_t size() const { return views_.size(); }

    /// (name, current value) pairs in registration order.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot() const {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        out.reserve(views_.size());
        for (const auto& [name, count] : views_) out.emplace_back(name, *count);
        return out;
    }

private:
    std::vector<std::pair<std::string, const std::uint64_t*>> views_;
};

}  // namespace capbench::obs
