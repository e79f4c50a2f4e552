// Growable circular buffer for hot-path FIFO/deque workloads.
//
// std::deque allocates and frees node blocks as the window slides, which
// puts one malloc every few dozen packets on the NIC-ring, socket-queue and
// scheduler ready-queue paths.  RingBuffer keeps one power-of-two backing
// vector that only ever grows, so pushes and pops are allocation-free in
// steady state.  Elements must be default-constructible and movable;
// popped slots are overwritten with a default-constructed value so held
// resources (PacketPtr, callbacks) are released eagerly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace capbench::sim {

template <typename T>
class RingBuffer {
public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    /// Capacity of the backing store (high-water mark diagnostic).
    [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

    [[nodiscard]] T& front() { return buf_[head_]; }
    [[nodiscard]] const T& front() const { return buf_[head_]; }

    void push_back(T value) {
        reserve_one();
        buf_[(head_ + count_) & mask_] = std::move(value);
        ++count_;
    }

    /// Appends an element and returns it for the caller to fill in place.
    /// It holds a default-constructed value, or a moved-from one when its
    /// slot was last vacated by drop_front().
    [[nodiscard]] T& emplace_back() {
        reserve_one();
        T& slot = buf_[(head_ + count_) & mask_];
        ++count_;
        return slot;
    }

    void push_front(T value) {
        reserve_one();
        head_ = (head_ + mask_) & mask_;  // head - 1 mod capacity
        buf_[head_] = std::move(value);
        ++count_;
    }

    void pop_front() {
        buf_[head_] = T{};
        drop_front();
    }

    /// Removes the front element without resetting its slot, for a caller
    /// that has already moved the element's resources out.
    void drop_front() {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    /// Drops all elements (releasing their resources); keeps the capacity.
    void clear() {
        while (count_ > 0) pop_front();
        head_ = 0;
    }

private:
    void reserve_one() {
        if (count_ < buf_.size()) return;
        const std::size_t new_cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
        // Move-construct the live elements in order, then default-construct
        // only the spare slots (emplace_back hands them out as they are).
        std::vector<T> grown;
        grown.reserve(new_cap);
        for (std::size_t i = 0; i < count_; ++i)
            grown.emplace_back(std::move(buf_[(head_ + i) & mask_]));
        grown.resize(new_cap);
        buf_ = std::move(grown);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    static constexpr std::size_t kInitialCapacity = 16;

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
};

}  // namespace capbench::sim
