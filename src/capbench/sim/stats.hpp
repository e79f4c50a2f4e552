// Small statistics helpers used throughout the measurement harness.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace capbench::sim {

/// Stores integer samples (nanoseconds) and digests them into a Summary;
/// the observability layer's packet-lifecycle latency sets.  One const
/// kernel digests a set: it reads the samples without reordering or
/// copying them, sums in integers and finds the order statistics by a radix
/// multiselect instead of sorting.  While the sum of |samples| stays below
/// 2^53 every result is bit for bit what a sort, an in-order double sum and
/// linear interpolation would give.
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

    void add(std::int64_t x) {
        if (digest_) [[unlikely]] released("add");
        samples_.push_back(x);
    }
    void reserve(std::size_t n) { samples_.reserve(n); }
    /// Appends every sample of `other` (merging repetitions of a run);
    /// appending a set to itself doubles it.  Throws std::logic_error when
    /// either set is summarized.
    void append(const SampleSet& other);

    /// The sample count, also after summarize().
    [[nodiscard]] std::size_t size() const {
        return digest_ ? static_cast<std::size_t>(digest_->count) : samples_.size();
    }
    [[nodiscard]] bool empty() const { return size() == 0; }

    /// Computes count/min/max/mean/p50/p95/p99: an integer pass, then one
    /// radix multiselect of the six ranks the three linearly interpolated
    /// quantiles need.  Scratch memory holds only the samples of the
    /// buckets those ranks fall in.  A single sample is every quantile of
    /// itself.  On a summarized set, returns the kept digest.
    [[nodiscard]] Summary summary() const;

    /// Computes summary()'s digest, keeps it and releases the samples.
    /// Afterwards size() and summary() still answer, while add and append
    /// throw std::logic_error.  A second call does nothing.
    void summarize();

private:
    [[noreturn]] static void released(const char* what);

    std::vector<std::int64_t> samples_;
    std::optional<Summary> digest_;  // set by summarize(); samples_ is then empty
};

}  // namespace capbench::sim
