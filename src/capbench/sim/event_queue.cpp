#include "capbench/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace capbench::sim {

EventHandle EventQueue::push(SimTime t, Action action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action = std::move(action);
    s.state = SlotState::kScheduled;
    heap_push(HeapEntry{t, next_seq_++, slot});
    ++live_;
    ++stats_.pushed;
    return EventHandle{this, slot, s.generation};
}

void EventQueue::cancel(std::uint32_t slot, std::uint64_t generation) {
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (s.generation != generation || s.state != SlotState::kScheduled) return;
    // Bump the generation so every handle to this event goes inert, and
    // destroy the callback now so captured resources are released eagerly.
    ++s.generation;
    s.action.reset();
    --live_;
    ++stats_.cancelled;
    // The heap entry stays behind as a tombstone until it surfaces.
    s.state = SlotState::kCancelled;
    ++cancelled_backlog_;
}

bool EventQueue::is_pending(std::uint32_t slot, std::uint64_t generation) const {
    if (slot >= slots_.size()) return false;
    const Slot& s = slots_[slot];
    return s.generation == generation && s.state == SlotState::kScheduled;
}

SimTime EventQueue::next_time() {
    purge_cancelled_head();
    if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
    return heap_.front().time;
}

SimTime EventQueue::pop_and_run() {
    purge_cancelled_head();
    if (heap_.empty()) throw std::logic_error("EventQueue::pop_and_run on empty queue");
    const SimTime time = heap_.front().time;
    const std::uint32_t slot = heap_.front().slot;
    heap_pop_front();
    Slot& s = slots_[slot];
    // Move the action out and release the slot before running: the action
    // may push new events (which can reuse this slot) and EventHandles to
    // this event must already read "not pending" while it runs.
    Action action = std::move(s.action);
    s.action.reset();
    ++s.generation;
    release_slot(slot);
    --live_;
    ++stats_.executed;
    action();
    return time;
}

void EventQueue::clear() {
    // Bump generations of every occupied slot so outstanding handles are
    // inert, then rebuild a pristine freelist over the whole slab.
    heap_.clear();
    free_head_ = kNoSlot;
    for (std::size_t i = slots_.size(); i > 0; --i) {
        Slot& s = slots_[i - 1];
        if (s.state != SlotState::kFree) ++s.generation;
        s.state = SlotState::kFree;
        s.action.reset();
        s.next_free = free_head_;
        free_head_ = static_cast<std::uint32_t>(i - 1);
    }
    live_ = 0;
    cancelled_backlog_ = 0;
}

std::uint32_t EventQueue::acquire_slot() {
    if (free_head_ == kNoSlot) {
        if (slots_.size() >= kNoSlot)
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
    Slot& s = slots_[index];
    s.state = SlotState::kFree;
    s.next_free = free_head_;
    free_head_ = index;
}

void EventQueue::purge_cancelled_head() {
    while (!heap_.empty() && slots_[heap_.front().slot].state == SlotState::kCancelled) {
        const std::uint32_t slot = heap_.front().slot;
        heap_pop_front();
        release_slot(slot);
        --cancelled_backlog_;
    }
}

// ---- 4-ary min-heap ----------------------------------------------------------
//
// A 4-ary heap halves the tree depth of the binary heap and keeps parent and
// children within one or two cache lines of HeapEntry (24 B), which measures
// faster for the push/pop mix the simulator produces.

void EventQueue::heap_push(HeapEntry entry) {
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(heap_[i], heap_[parent])) break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void EventQueue::heap_pop_front() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) return;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], heap_[i])) return;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

}  // namespace capbench::sim
