// Small statistics helpers used throughout the measurement harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace capbench::sim {

/// Stores integer samples (nanoseconds) and digests them into a Summary;
/// the observability layer's packet-lifecycle latency sets.  A set keeps
/// 32 bits a sample while every sample lies in [0, 2^32) (4.29 s); the
/// first sample outside that range widens it to 64 bits once, keeping
/// every value and the order.  add() and append() carry the min, max and
/// integer sum, so one const kernel digests either form in place with no
/// pass of its own for them: it reads the samples without reordering or
/// copying them and finds the order statistics by a radix multiselect
/// instead of sorting.  While the sum of |samples| stays below 2^53 every
/// result is bit for bit what a sort, an in-order double sum and linear
/// interpolation would give.
class SampleSet {
public:
    /// One-pass digest of a sample set.  All fields are 0 when empty.
    struct Summary {
        std::uint64_t count = 0;
        double min = 0.0;
        double max = 0.0;
        double mean = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
    };

    SampleSet() = default;
    /// A moved-from set is empty, its carried min, max and sum included.
    SampleSet(SampleSet&& other) noexcept { *this = std::move(other); }
    SampleSet& operator=(SampleSet&& other) noexcept;
    SampleSet(const SampleSet&) = default;
    SampleSet& operator=(const SampleSet&) = default;

    void add(std::int64_t x) {
        if (digest_) [[unlikely]] released("add");
        track(x);
        if (wide_.empty() && static_cast<std::uint64_t>(x) >> 32 == 0) [[likely]]
            narrow_.push_back(static_cast<std::uint32_t>(x));
        else
            add_wide(x);
    }
    /// Appends sample(0), ..., sample(n - 1), as n add() calls in that order
    /// would.  While the set is narrow, the samples are written in place
    /// with the carried min, max and sum in registers; a sample outside
    /// [0, 2^32) hands it and the rest to add(), so `sample` may be called
    /// twice for one index.
    template <typename F>
    void add_n(std::size_t n, F sample) {
        if (digest_) [[unlikely]] released("add");
        if (!wide_.empty()) {
            for (std::size_t i = 0; i < n; ++i) add_wide(track(sample(i)));
            return;
        }
        const std::size_t old = narrow_.size();
        narrow_.resize(old + n);
        std::uint32_t* const out = narrow_.data() + old;
        std::int64_t lo = lo_;
        std::int64_t hi = hi_;
        std::uint64_t sum = sum_;
        std::size_t i = 0;
        for (; i < n; ++i) {
            const std::int64_t x = sample(i);
            if (static_cast<std::uint64_t>(x) >> 32 != 0) [[unlikely]] break;
            out[i] = static_cast<std::uint32_t>(x);
            lo = std::min(lo, x);
            hi = std::max(hi, x);
            sum += static_cast<std::uint64_t>(x);
        }
        lo_ = lo;
        hi_ = hi;
        sum_ = sum;
        if (i == n) [[likely]] return;
        narrow_.resize(old + i);
        for (; i < n; ++i) add(sample(i));
    }
    /// Reserves room for `n` samples in the set's current width.
    void reserve(std::size_t n) {
        if (wide_.empty()) narrow_.reserve(n);
        else wide_.reserve(n);
    }
    /// Appends every sample of `other` (merging repetitions of a run) in
    /// order, widening this set when `other` is wide; appending a set to
    /// itself doubles it.  Throws std::logic_error when either set is
    /// summarized.
    void append(const SampleSet& other);

    /// The sample count, also after summarize().
    [[nodiscard]] std::size_t size() const {
        return digest_ ? static_cast<std::size_t>(digest_->count)
                       : narrow_.size() + wide_.size();
    }
    [[nodiscard]] bool empty() const { return size() == 0; }
    /// True once a sample outside [0, 2^32) made the set store 64 bits a
    /// sample.
    [[nodiscard]] bool wide() const { return !wide_.empty(); }
    /// Bytes the sample stores hold (their capacity); 0 after summarize().
    [[nodiscard]] std::size_t storage_bytes() const {
        return narrow_.capacity() * sizeof(std::uint32_t) +
               wide_.capacity() * sizeof(std::int64_t);
    }

    /// Computes count/min/max/mean/p50/p95/p99 from the carried min, max
    /// and sum and one radix multiselect of the six ranks the three
    /// linearly interpolated quantiles need.  Scratch memory holds only the
    /// samples of the buckets those ranks fall in.  A single sample is every
    /// quantile of itself.  On a summarized set, returns the kept digest.
    [[nodiscard]] Summary summary() const;

    /// Computes summary()'s digest, keeps it and releases the samples.
    /// Afterwards size() and summary() still answer, while add and append
    /// throw std::logic_error.  A second call does nothing.
    void summarize();

private:
    [[noreturn]] static void released(const char* what);
    /// Folds x into the carried min, max and sum; returns it.
    std::int64_t track(std::int64_t x) {
        lo_ = std::min(lo_, x);
        hi_ = std::max(hi_, x);
        sum_ += static_cast<std::uint64_t>(x);
        return x;
    }
    void add_wide(std::int64_t x);
    /// Moves every narrow sample into the wide store, in order.
    void widen();

    // Exactly one store holds the samples: narrow_ until the first sample
    // outside [0, 2^32), wide_ from then on.
    std::vector<std::uint32_t> narrow_;
    std::vector<std::int64_t> wide_;
    std::optional<Summary> digest_;  // set by summarize(); both stores are then empty
    // Carried by add() and append() over every sample the stores hold.
    // sum_ wraps instead of overflowing; see the mean.
    std::int64_t lo_ = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi_ = std::numeric_limits<std::int64_t>::min();
    std::uint64_t sum_ = 0;
};

}  // namespace capbench::sim
