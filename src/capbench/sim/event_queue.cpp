#include "capbench/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace capbench::sim {

void EventQueue::push_reserved(SimTime t, std::uint64_t seq, Action action) {
    if (seq >= next_seq_)
        throw std::logic_error("EventQueue::push_reserved: sequence number not reserved");
    if (!earlier(running_, HeapEntry{t, seq, kNoSlot}))
        throw std::logic_error(
            "EventQueue::push_reserved: (time, seq) not after the running event");
    insert(t, seq, std::move(action));
}

void EventQueue::insert(SimTime t, std::uint64_t seq, Action action) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].action = std::move(action);
    heap_push(HeapEntry{t, seq, slot});
    ++stats_.pushed;
}

SimTime EventQueue::next_time() const {
    if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
    return heap_.front().time;
}

SimTime EventQueue::pop_and_run() {
    if (heap_.empty()) throw std::logic_error("EventQueue::pop_and_run on empty queue");
    running_ = heap_.front();
    const SimTime time = running_.time;
    heap_pop_front();
    // Move the action out and release the slot before running: the action
    // may push new events, which can reuse this slot.
    Action action = std::move(slots_[running_.slot].action);
    release_slot(running_.slot);
    ++stats_.executed;
    action();
    return time;
}

void EventQueue::clear() {
    heap_.clear();
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
    slots_[index].next_free = free_head_;
    free_head_ = index;
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
