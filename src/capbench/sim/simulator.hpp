// Discrete-event simulator run loop.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "capbench/sim/event_queue.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::sim {

/// Owns the clock and the event queue; components schedule callbacks on it.
class Simulator {
public:
    Simulator() = default;
    /// Accepts the one-value EventQueueBackend so existing callers compile.
    explicit Simulator(EventQueueBackend /*backend*/) {}

    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedules `action` to run `delay` after the current time.
    void schedule_in(Duration delay, EventQueue::Action action) {
        queue_.push(now_ + delay, std::move(action));
    }

    /// Schedules `action` at absolute time `t` (must not be in the past).
    void schedule_at(SimTime t, EventQueue::Action action) {
        if (t < now_) throw std::logic_error("Simulator::schedule_at in the past");
        queue_.push(t, std::move(action));
    }

    /// Fires the fixed target `target` at absolute time `t` (must not be in
    /// the past); see EventQueue::add_target.
    void schedule_at(SimTime t, EventQueue::Target target) {
        if (t < now_) throw std::logic_error("Simulator::schedule_at in the past");
        queue_.push(t, target);
    }

    /// Runs until the queue drains or the clock passes `until`.
    /// Returns the number of events executed.
    std::uint64_t run(SimTime until = SimTime::max()) {
        std::uint64_t executed = 0;
        while (!queue_.empty()) {
            const SimTime t = queue_.next_time();
            if (t > until) break;
            // Advance the clock before the action runs so it observes now().
            now_ = t;
            queue_.pop_and_run();
            ++executed;
        }
        total_executed_ += executed;
        if (until != SimTime::max() && until > now_) now_ = until;
        return executed;
    }

    /// Runs a single event if one exists.  Returns false when idle.
    bool step() {
        if (queue_.empty()) return false;
        now_ = queue_.next_time();
        queue_.pop_and_run();
        ++total_executed_;
        return true;
    }

    /// Total events executed over the simulator's lifetime (perf metric).
    [[nodiscard]] std::uint64_t events_executed() const { return total_executed_; }

    EventQueue& queue() { return queue_; }

private:
    EventQueue queue_;
    SimTime now_{};
    std::uint64_t total_executed_ = 0;
};

}  // namespace capbench::sim
