// Small statistics helpers used throughout the measurement harness.
#pragma once

#include <cstdint>
#include <vector>

namespace capbench::sim {

/// Stores integer samples (nanoseconds) and answers quantile queries; the
/// observability layer's packet-lifecycle latency sets.  Summaries select
/// the order statistics they need instead of sorting, and sum in integers:
/// while the sum of |samples| stays below 2^53 every result is bit for bit
/// what a sort, an in-order double sum and linear interpolation would give.
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

    void add(std::int64_t x) { samples_.push_back(x); }
    void reserve(std::size_t n) { samples_.reserve(n); }
    /// Appends every sample of `other` (merging repetitions of a run).
    void append(const SampleSet& other) {
        samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    }

    [[nodiscard]] std::size_t size() const { return samples_.size(); }
    [[nodiscard]] bool empty() const { return samples_.empty(); }

    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double mean() const;
    /// Linear-interpolation quantile, q in [0, 1].  A single sample is
    /// every quantile of itself; an empty set answers 0.0 (quantile of
    /// nothing) so summary rows stay total.  q outside [0, 1] throws.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double p50() const { return quantile(0.50); }
    [[nodiscard]] double p95() const { return quantile(0.95); }
    [[nodiscard]] double p99() const { return quantile(0.99); }

    /// Computes count/min/max/mean/p50/p95/p99 from one scratch copy:
    /// an integer pass, then three selections over shrinking prefixes.
    [[nodiscard]] Summary summary() const;

private:
    std::vector<std::int64_t> samples_;
};

}  // namespace capbench::sim
