// Growable circular buffer for hot-path FIFO/deque workloads.
//
// std::deque allocates and frees node blocks as the window slides, which
// puts one malloc every few dozen packets on the NIC-ring, socket-queue and
// scheduler ready-queue paths.  RingBuffer keeps one power-of-two backing
// array that only ever grows, so pushes and pops are allocation-free in
// steady state.  Elements must be default-constructible and movable;
// popped slots are overwritten with a default-constructed value so held
// resources (PacketPtr, callbacks) are released eagerly.  Pushes are inline
// and test one count; growth is out of line: it allocates the doubled array
// for overwrite (spare slots default-initialised only, indeterminate when
// that is trivial) and moves the two live runs into it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

namespace capbench::sim {

template <typename T>
class RingBuffer {
public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    /// Capacity of the backing store (high-water mark diagnostic).
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    [[nodiscard]] T& front() { return buf_[head_]; }
    [[nodiscard]] const T& front() const { return buf_[head_]; }
    /// The i-th element from the front; i < size().
    [[nodiscard]] const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }

    void push_back(T value) {
        if (count_ == capacity_) [[unlikely]] grow();
        buf_[(head_ + count_) & mask_] = std::move(value);
        ++count_;
    }

    /// Appends an element and returns it for the caller to fill in place.
    /// It holds a default-initialised value (indeterminate for a trivially
    /// default-constructible T), the value pop_front() reset it to, or a
    /// moved-from one when its slot was last vacated by drop_front().
    [[nodiscard]] T& emplace_back() {
        if (count_ == capacity_) [[unlikely]] grow();
        T& slot = buf_[(head_ + count_) & mask_];
        ++count_;
        return slot;
    }

    void push_front(T value) {
        if (count_ == capacity_) [[unlikely]] grow();
        head_ = (head_ + mask_) & mask_;  // head - 1 mod capacity
        buf_[head_] = std::move(value);
        ++count_;
    }

    void pop_front() {
        buf_[head_] = T{};
        drop_front();
    }

    /// Removes the `n` front elements (default one, n <= size()) without
    /// resetting their slots, for a caller that has already moved their
    /// resources out.
    void drop_front(std::size_t n = 1) {
        head_ = (head_ + n) & mask_;
        count_ -= n;
    }

    /// Drops all elements (releasing their resources); keeps the capacity.
    void clear() {
        while (count_ > 0) pop_front();
        head_ = 0;
    }

private:
    /// Doubles the capacity, moving the live elements to the front of the
    /// new array in order.
    [[gnu::noinline]] void grow() {
        const std::size_t new_cap = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
        auto grown = std::make_unique_for_overwrite<T[]>(new_cap);
        // The live elements are [head_, capacity_) then [0, rest).
        const std::size_t first = std::min(count_, capacity_ - head_);
        const std::size_t rest = count_ - first;
        std::move(buf_.get() + head_, buf_.get() + head_ + first, grown.get());
        std::move(buf_.get(), buf_.get() + rest, grown.get() + first);
        buf_ = std::move(grown);
        capacity_ = new_cap;
        head_ = 0;
        mask_ = new_cap - 1;
    }

    static constexpr std::size_t kInitialCapacity = 16;

    std::unique_ptr<T[]> buf_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
};

}  // namespace capbench::sim
