// Slab-backed priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, sequence number) so that simultaneous events
// run in insertion order, which keeps runs deterministic.  The queue is a
// 4-ary min-heap of 24-byte (time, seq, ref) entries, O(log n) per
// operation.  An entry's ref names one of two kinds of event:
//
//  * A slot-backed callable: push() moves an InplaceFunction into a slot of
//    a reusable slab (no allocation in steady state; captures up to ~96 B
//    live inside the slot).
//  * A fixed target: a function, a `self` pointer and a 32-bit argument,
//    registered once per object with add_target().  A target fires with
//    its heap entry's seq, uses no slot and moves no callable, which makes
//    it the form for recurring per-object events: hostsim::Machine's
//    kernel lanes, thread chunks and deferred dispatch, the generator's
//    next send and net::Link deliveries.
//
// Events cannot be cancelled.  A component that may need to move an event
// later reserves a sequence number now (reserve()) and inserts a target
// under it when it knows the time (push_reserved()).  Such a late insert
// pops exactly where a push made at reservation time would have popped,
// because every event popped in between had a smaller (time, seq) pair.
// FIFO lanes use this to keep only their head in the heap: each item takes
// its seq when it is queued, and the head's event pushes the next head.
//
// pop_and_run() leaves the popped root in place as a hole while the event
// runs.  The running event's first push fills the hole with one sift-down,
// so the common pop-then-push-a-successor step costs one heap pass, not
// two; an event that pushes nothing closes the hole after it returns.
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

    /// A fixed target's function: called with the registered `self` and
    /// `arg`, and the sequence number the firing entry was pushed under.
    using TargetFn = void (*)(void* self, std::uint32_t arg, std::uint64_t seq);

    /// Handle of a registered fixed target.
    struct Target {
        std::uint32_t index = 0;
    };

    /// Lifetime counters (monotonic; survive clear()).
    struct Stats {
        std::uint64_t pushed = 0;
        std::uint64_t executed = 0;
    };

    /// Registers a fixed target.  `self` must outlive every entry pushed
    /// for the target; registrations survive clear().
    [[nodiscard]] Target add_target(TargetFn fn, void* self, std::uint32_t arg = 0);

    /// Schedules `action` to run at absolute time `t` under the next
    /// sequence number.
    void push(SimTime t, Action&& action);

    /// Schedules `target` to fire at absolute time `t` under the next
    /// sequence number.
    void push(SimTime t, Target target) { insert(t, next_seq_++, ref_of(target)); }

    /// Hands out the next sequence number without scheduling anything.
    [[nodiscard]] std::uint64_t reserve() { return next_seq_++; }

    /// Schedules `target` at `t` under `seq`, a number reserve() handed
    /// out.  Throws std::logic_error unless (t, seq) is later than the
    /// event that last popped, which is what makes the late insert pop
    /// where a push at reservation time would have.
    void push_reserved(SimTime t, std::uint64_t seq, Target target);

    [[nodiscard]] bool empty() const { return size() == 0; }

    /// Number of scheduled events — the queue-depth signal.
    [[nodiscard]] std::size_t size() const { return heap_.size() - (hole_ ? 1 : 0); }

    /// Number of slab slots ever created (capacity high-water mark).
    [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

    /// Time of the earliest event.  Requires !empty().
    [[nodiscard]] SimTime next_time() const;

    /// Pops and runs the earliest event, returning its time.
    /// Requires !empty().
    SimTime pop_and_run();

    /// Drops every pending event and resets the slab and freelist to a
    /// pristine state (capacity and registered targets are kept).
    void clear();

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    /// Set in a heap entry's ref when it names a target, not a slot.
    static constexpr std::uint32_t kTargetBit = 0x80000000u;

    struct Slot {
        Action action;
        std::uint32_t next_free = kNoSlot;
    };

    struct TargetEntry {
        TargetFn fn;
        void* self;
        std::uint32_t arg;
    };

    /// Heap entries carry the ordering key so comparisons never chase the
    /// slot indirection.
    struct HeapEntry {
        SimTime time;
        std::uint64_t seq = 0;
        std::uint32_t ref = 0;  // slot index, or target index | kTargetBit
    };

    static bool earlier(const HeapEntry& a, const HeapEntry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }

    static std::uint32_t ref_of(Target target) { return target.index | kTargetBit; }

    // The new entry travels as scalars, in registers: building it on the
    // stack and reloading it as a whole stalls store forwarding.
    void insert(SimTime t, std::uint64_t seq, std::uint32_t ref);
    void close_hole();

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index);

    // 4-ary min-heap over heap_ ordered by earlier().
    void sift_up(SimTime t, std::uint64_t seq, std::uint32_t ref);
    void sift_down(SimTime t, std::uint64_t seq, std::uint32_t ref);

    std::vector<Slot> slots_;
    std::vector<TargetEntry> targets_;
    std::vector<HeapEntry> heap_;
    std::uint32_t free_head_ = kNoSlot;
    /// True while heap_.front() is the popped entry of the running event.
    bool hole_ = false;
    /// Sequence numbers start at 1, so the initial running_ pair precedes
    /// every pair that can be handed out.
    std::uint64_t next_seq_ = 1;
    /// (time, seq) of the event that last popped.
    HeapEntry running_{SimTime{std::numeric_limits<std::int64_t>::min()}, 0, kNoSlot};
    Stats stats_;
};

}  // namespace capbench::sim
