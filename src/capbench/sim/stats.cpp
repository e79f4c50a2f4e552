#include "capbench/sim/stats.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace capbench::sim {

double SampleSet::min() const {
    if (samples_.empty()) throw std::logic_error("SampleSet::min on empty set");
    return static_cast<double>(*std::min_element(samples_.begin(), samples_.end()));
}

double SampleSet::max() const {
    if (samples_.empty()) throw std::logic_error("SampleSet::max on empty set");
    return static_cast<double>(*std::max_element(samples_.begin(), samples_.end()));
}

namespace {

/// Exact while the sum of |samples| stays below 2^53: the integer sum then
/// converts without rounding, as every partial double sum would have.
double mean_of(std::int64_t sum, std::size_t n) {
    return static_cast<double>(sum) / static_cast<double>(n);
}

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

}  // namespace

double SampleSet::mean() const {
    if (samples_.empty()) throw std::logic_error("SampleSet::mean on empty set");
    return mean_of(std::accumulate(samples_.begin(), samples_.end(), std::int64_t{0}),
                   samples_.size());
}

double SampleSet::quantile(double q) const {
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("SampleSet::quantile: q outside [0,1]");
    if (samples_.empty()) return 0.0;
    std::vector<std::int64_t> scratch = samples_;
    std::size_t limit = scratch.size();
    return select_quantile(scratch, limit, q);
}

SampleSet::Summary SampleSet::summary() const {
    Summary s;
    if (samples_.empty()) return s;
    std::vector<std::int64_t> scratch = samples_;
    std::int64_t lo = scratch.front();
    std::int64_t hi = scratch.front();
    std::int64_t sum = 0;
    for (const std::int64_t x : scratch) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        sum += x;
    }
    s.count = scratch.size();
    s.min = static_cast<double>(lo);
    s.max = static_cast<double>(hi);
    s.mean = mean_of(sum, scratch.size());
    // Descending q: each selection narrows the range the next one searches.
    std::size_t limit = scratch.size();
    s.p99 = select_quantile(scratch, limit, 0.99);
    s.p95 = select_quantile(scratch, limit, 0.95);
    s.p50 = select_quantile(scratch, limit, 0.50);
    return s;
}

}  // namespace capbench::sim
