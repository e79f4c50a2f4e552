#include "capbench/sim/stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace capbench::sim {

void SampleSet::released(const char* what) {
    throw std::logic_error(std::string{"SampleSet::"} + what +
                           " on a summarized set: its samples are released");
}

void SampleSet::append(const SampleSet& other) {
    if (digest_) released("append");
    if (other.digest_) released("append (from)");
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

namespace {

/// Linear-interpolation quantile of a non-empty set, by selection.  On
/// entry v[0, limit) holds the `limit` smallest samples and, when limit <
/// v.size(), v[limit] is the next one with nothing smaller after it; q's
/// rank must not exceed limit.  On return limit is q's rank, so a smaller
/// q searches only the prefix this call left.
double select_quantile(std::vector<std::int64_t>& v, std::size_t& limit, double q) {
    const std::size_t n = v.size();
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    std::int64_t* const first = v.data();
    // The hi-th smallest is the least sample above rank lo: within the
    // prefix plus v[limit], or anywhere after lo when lo is limit itself.
    std::size_t upper = n;
    if (lo < limit) {
        std::nth_element(first, first + lo, first + limit);
        upper = std::min(limit + 1, n);
    }
    limit = lo;
    const double at_lo = static_cast<double>(first[lo]);
    const double at_hi =
        hi == lo ? at_lo : static_cast<double>(*std::min_element(first + hi, first + upper));
    return at_lo * (1.0 - frac) + at_hi * frac;
}

/// The summary of `v`, which it reorders: an integer pass, then three
/// selections over shrinking prefixes.
SampleSet::Summary summarize_in(std::vector<std::int64_t>& v) {
    SampleSet::Summary s;
    if (v.empty()) return s;
    std::int64_t lo = v.front();
    std::int64_t hi = v.front();
    std::int64_t sum = 0;
    for (const std::int64_t x : v) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        sum += x;
    }
    s.count = v.size();
    s.min = static_cast<double>(lo);
    s.max = static_cast<double>(hi);
    // Exact while the sum of |samples| stays below 2^53: the integer sum
    // converts without rounding, as every partial double sum would have.
    s.mean = static_cast<double>(sum) / static_cast<double>(v.size());
    // Descending q: each selection narrows the range the next one searches.
    std::size_t limit = v.size();
    s.p99 = select_quantile(v, limit, 0.99);
    s.p95 = select_quantile(v, limit, 0.95);
    s.p50 = select_quantile(v, limit, 0.50);
    return s;
}

}  // namespace

SampleSet::Summary SampleSet::summary() const {
    if (digest_) return *digest_;
    std::vector<std::int64_t> scratch = samples_;
    return summarize_in(scratch);
}

void SampleSet::summarize() {
    if (digest_) return;
    digest_ = summarize_in(samples_);
    std::vector<std::int64_t>{}.swap(samples_);
}

}  // namespace capbench::sim
