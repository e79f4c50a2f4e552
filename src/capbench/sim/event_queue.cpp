#include "capbench/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace capbench::sim {

EventQueue::Target EventQueue::add_target(TargetFn fn, void* self, std::uint32_t arg) {
    if (targets_.size() >= kTargetBit)
        throw std::length_error("EventQueue: target table exhausted");
    targets_.push_back(TargetEntry{fn, self, arg});
    return Target{static_cast<std::uint32_t>(targets_.size() - 1)};
}

void EventQueue::push(SimTime t, Action&& action) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].action = std::move(action);
    insert(t, next_seq_++, slot);
}

void EventQueue::push_reserved(SimTime t, std::uint64_t seq, Target target) {
    if (seq >= next_seq_)
        throw std::logic_error("EventQueue::push_reserved: sequence number not reserved");
    if (!earlier(running_, HeapEntry{t, seq, kNoSlot}))
        throw std::logic_error(
            "EventQueue::push_reserved: (time, seq) not after the running event");
    insert(t, seq, ref_of(target));
}

void EventQueue::insert(SimTime t, std::uint64_t seq, std::uint32_t ref) {
    ++stats_.pushed;
    if (hole_) {
        // The running event's first push takes the popped root's place.
        hole_ = false;
        sift_down(t, seq, ref);
    } else {
        sift_up(t, seq, ref);
    }
}

SimTime EventQueue::next_time() const {
    if (empty()) throw std::logic_error("EventQueue::next_time on empty queue");
    if (!hole_) return heap_.front().time;
    // The earliest live entry is one of the hole's children.
    const std::size_t last = std::min<std::size_t>(5, heap_.size());
    std::size_t best = 1;
    for (std::size_t c = 2; c < last; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
    return heap_[best].time;
}

SimTime EventQueue::pop_and_run() {
    if (hole_) close_hole();
    if (heap_.empty()) throw std::logic_error("EventQueue::pop_and_run on empty queue");
    running_ = heap_.front();
    hole_ = true;
    const SimTime time = running_.time;
    ++stats_.executed;
    if ((running_.ref & kTargetBit) != 0) {
        const TargetEntry target = targets_[running_.ref & ~kTargetBit];
        target.fn(target.self, target.arg, running_.seq);
    } else {
        // Move the action out and release the slot before running: the
        // action may push new events, which can reuse this slot.
        Action action = std::move(slots_[running_.ref].action);
        release_slot(running_.ref);
        action();
    }
    if (hole_) close_hole();
    return time;
}

void EventQueue::clear() {
    heap_.clear();
    hole_ = false;
    free_head_ = kNoSlot;
    for (std::size_t i = slots_.size(); i > 0; --i) {
        Slot& s = slots_[i - 1];
        s.action.reset();
        s.next_free = free_head_;
        free_head_ = static_cast<std::uint32_t>(i - 1);
    }
}

std::uint32_t EventQueue::acquire_slot() {
    if (free_head_ == kNoSlot) {
        if (slots_.size() >= kTargetBit)
            throw std::length_error("EventQueue: slot slab exhausted");
        slots_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
}

void EventQueue::release_slot(std::uint32_t index) {
    slots_[index].next_free = free_head_;
    free_head_ = index;
}

void EventQueue::close_hole() {
    hole_ = false;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last.time, last.seq, last.ref);
}

// ---- 4-ary min-heap ----------------------------------------------------------
//
// A 4-ary heap halves the tree depth of the binary heap and keeps parent and
// children within one or two cache lines of HeapEntry (24 B), which measures
// faster for the push/pop mix the simulator produces.  Both sifts move the
// entries they pass over and write the sifted entry once, at its place.

void EventQueue::sift_up(SimTime t, std::uint64_t seq, std::uint32_t ref) {
    const HeapEntry entry{t, seq, ref};
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(entry, heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

void EventQueue::sift_down(SimTime t, std::uint64_t seq, std::uint32_t ref) {
    // heap_[0] is vacant: the new entry goes there or below.
    const HeapEntry entry{t, seq, ref};
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], entry)) break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = entry;
}

}  // namespace capbench::sim
