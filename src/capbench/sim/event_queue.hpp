// Slab-backed priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, sequence number) so that simultaneous events
// run in insertion order, which keeps runs deterministic.  The storage is a
// slab of reusable slots; pushing an event takes a slot from the freelist
// (no allocation in steady state).  The slab is indexed by a 4-ary min-heap
// of 24-byte (time, seq, slot) entries, O(log n) per operation.
//
//  * Events cannot be cancelled.  A component that may need to move an
//    event later reserves a sequence number now (reserve()) and inserts
//    the event under it when it knows the time (push_reserved()).  Such a
//    late insert pops exactly where a push made at reservation time would
//    have popped, because every event popped in between had a smaller
//    (time, seq) pair.  hostsim::Machine keeps one heap entry per kernel
//    lane and per thread chunk this way.
//  * Callbacks are InplaceFunction: captures up to ~96 B live inside the
//    slot, so the steady-state event loop performs zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "capbench/sim/inplace_function.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::sim {

/// The heap is the only event queue.  This one-value enum exists solely so
/// that code naming TestbedConfig::event_queue, RunConfig::event_queue or
/// Simulator{backend} keeps compiling; it selects nothing.
enum class EventQueueBackend : std::uint8_t { kHeap };

class EventQueue {
public:
    using Action = InplaceFunction;

    /// Lifetime counters (monotonic; survive clear()).
    struct Stats {
        std::uint64_t pushed = 0;
        std::uint64_t executed = 0;
    };

    /// Schedules `action` to run at absolute time `t` under the next
    /// sequence number.
    void push(SimTime t, Action action) { insert(t, next_seq_++, std::move(action)); }

    /// Hands out the next sequence number without scheduling anything.
    [[nodiscard]] std::uint64_t reserve() { return next_seq_++; }

    /// Schedules `action` at `t` under `seq`, a number reserve() handed
    /// out.  Throws std::logic_error unless (t, seq) is later than the
    /// event that last popped, which is what makes the late insert pop
    /// where a push at reservation time would have.
    void push_reserved(SimTime t, std::uint64_t seq, Action action);

    [[nodiscard]] bool empty() const { return heap_.empty(); }

    /// Number of scheduled events — the queue-depth signal.
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    /// Number of slab slots ever created (capacity high-water mark).
    [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

    /// Time of the earliest event.  Requires !empty().
    [[nodiscard]] SimTime next_time() const;

    /// Pops and runs the earliest event, returning its time.
    /// Requires !empty().
    SimTime pop_and_run();

    /// Drops every pending event and resets the slab and freelist to a
    /// pristine state (capacity is kept).
    void clear();

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    struct Slot {
        Action action;
        std::uint32_t next_free = kNoSlot;
    };

    /// Heap entries carry the ordering key so comparisons never chase the
    /// slot indirection.
    struct HeapEntry {
        SimTime time;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };

    static bool earlier(const HeapEntry& a, const HeapEntry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }

    void insert(SimTime t, std::uint64_t seq, Action action);

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index);

    // 4-ary min-heap over heap_ ordered by earlier().
    void heap_push(HeapEntry entry);
    void heap_pop_front();
    void sift_down(std::size_t i);

    std::vector<Slot> slots_;
    std::vector<HeapEntry> heap_;
    std::uint32_t free_head_ = kNoSlot;
    /// Sequence numbers start at 1, so the initial running_ pair precedes
    /// every pair that can be handed out.
    std::uint64_t next_seq_ = 1;
    /// (time, seq) of the event that last popped.
    HeapEntry running_{SimTime{std::numeric_limits<std::int64_t>::min()}, 0, kNoSlot};
    Stats stats_;
};

}  // namespace capbench::sim
