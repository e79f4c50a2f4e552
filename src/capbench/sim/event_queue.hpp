// Slab-backed priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, sequence number) so that simultaneous events
// run in insertion order, which keeps runs deterministic.  The storage is a
// slab of reusable slots; pushing an event takes a slot from the freelist
// (no allocation in steady state) and cancellation is a generation check —
// no per-event shared_ptr control block.
//
// The slab is indexed by a 4-ary min-heap of 24-byte (time, seq, slot)
// entries, O(log n) per operation.  Cancellation is lazy: the slot is
// released and its callback destroyed immediately, but the heap entry stays
// as a tombstone until it surfaces; cancelled_backlog() counts those.
//
//  * EventHandle is (queue, slot index, generation).  A slot's generation
//    is bumped whenever its event fires or is cancelled, so stale handles —
//    including handles whose slot has since been reused — are inert
//    (ABA-safe).  Handles must not outlive the queue they came from.
//  * Callbacks are InplaceFunction: captures up to ~96 B live inside the
//    slot, so the steady-state event loop performs zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capbench/sim/inplace_function.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::sim {

class EventQueue;

/// The heap is the only event queue.  This one-value enum exists solely so
/// that code naming TestbedConfig::event_queue, RunConfig::event_queue or
/// Simulator{backend} keeps compiling; it selects nothing.
enum class EventQueueBackend : std::uint8_t { kHeap };

/// Handle to a scheduled event; allows cancellation.  Copyable; all copies
/// refer to the same scheduled event.  A default-constructed handle is
/// inert.  Handles must not be used after their EventQueue is destroyed.
class EventHandle {
public:
    EventHandle() = default;

    /// Cancels the event if it has not fired yet.  Safe to call repeatedly,
    /// after the event ran, and after EventQueue::clear().
    void cancel();

    /// True while the event is still scheduled (not fired, not cancelled).
    [[nodiscard]] bool pending() const;

private:
    friend class EventQueue;
    EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t generation)
        : queue_(queue), slot_(slot), generation_(generation) {}

    EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t generation_ = 0;
};

class EventQueue {
public:
    using Action = InplaceFunction;

    /// Lifetime counters (monotonic; survive clear()).
    struct Stats {
        std::uint64_t pushed = 0;
        std::uint64_t executed = 0;
        std::uint64_t cancelled = 0;
    };

    /// Schedules `action` to run at absolute time `t`.
    EventHandle push(SimTime t, Action action);

    /// True when no live events remain (cancelled events do not count).
    [[nodiscard]] bool empty() const { return live_ == 0; }

    /// Number of live (scheduled, not cancelled) events — the queue-depth
    /// signal.  Lazily-cancelled entries are excluded.
    [[nodiscard]] std::size_t size() const { return live_; }

    /// Cancelled entries still occupying heap positions (they are discarded
    /// when they surface).  Exposed for stats/diagnostics.
    [[nodiscard]] std::size_t cancelled_backlog() const { return cancelled_backlog_; }

    /// Number of slab slots ever created (capacity high-water mark).
    [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

    /// Time of the earliest live event.  Requires !empty().
    [[nodiscard]] SimTime next_time();

    /// Pops and runs the earliest live event, returning its time.
    /// Requires !empty().
    SimTime pop_and_run();

    /// Drops every pending event and resets the slab and freelist to a
    /// pristine state (capacity is kept).  Outstanding EventHandles become
    /// inert: cancel() and pending() on them are safe no-ops.
    void clear();

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    enum class SlotState : std::uint8_t { kFree, kScheduled, kCancelled };

    struct Slot {
        Action action;
        std::uint64_t generation = 0;
        std::uint32_t next_free = kNoSlot;
        SlotState state = SlotState::kFree;
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

    void cancel(std::uint32_t slot, std::uint64_t generation);
    [[nodiscard]] bool is_pending(std::uint32_t slot, std::uint64_t generation) const;

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index);

    // 4-ary min-heap over heap_ ordered by earlier().
    void heap_push(HeapEntry entry);
    void heap_pop_front();
    void sift_down(std::size_t i);

    /// Discards cancelled entries from the heap head until the head is live
    /// (or the heap is empty).
    void purge_cancelled_head();

    std::vector<Slot> slots_;
    std::vector<HeapEntry> heap_;
    std::uint32_t free_head_ = kNoSlot;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
    std::size_t cancelled_backlog_ = 0;
    Stats stats_;
};

inline void EventHandle::cancel() {
    if (queue_ != nullptr) queue_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
    return queue_ != nullptr && queue_->is_pending(slot_, generation_);
}

}  // namespace capbench::sim
