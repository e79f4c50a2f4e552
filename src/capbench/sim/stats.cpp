#include "capbench/sim/stats.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>

namespace capbench::sim {

void SampleSet::released(const char* what) {
    throw std::logic_error(std::string{"SampleSet::"} + what +
                           " on a summarized set: its samples are released");
}

namespace {

/// Appends v to itself; insert() may not read from the vector it grows,
/// so this copies after resizing.
template <typename T>
void double_in_place(std::vector<T>& v) {
    const std::size_t n = v.size();
    v.resize(2 * n);
    std::copy_n(v.begin(), n, v.begin() + static_cast<std::ptrdiff_t>(n));
}

constexpr unsigned kRadixBits = 10;
constexpr std::size_t kBuckets = std::size_t{1} << kRadixBits;
/// Sets no larger than this are sorted instead of counted.
constexpr std::size_t kSortMax = 64;
/// p50, p95 and p99 each interpolate between two ranks.
constexpr std::size_t kMaxRanks = 6;

/// Writes the rank[j]-th smallest of x[0, n) to value[j] for each of the
/// `k` ranks, which ascend strictly and lie below n.  Reads x, never
/// reorders it.  T is a store's element type: uint32_t or int64_t.
template <typename T>
void select_sorted(const T* x, std::size_t n, const std::size_t* rank, std::int64_t* value,
                   std::size_t k) {
    std::array<T, kSortMax> a;
    std::copy_n(x, n, a.begin());
    std::sort(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n));
    for (std::size_t j = 0; j < k; ++j) value[j] = static_cast<std::int64_t>(a[rank[j]]);
}

/// select_sorted's contract for any n, given x's exact min `lo` and max
/// `hi`: a radix multiselect.  One counting pass over 2^10 buckets of
/// (x - lo) >> shift finds each rank's bucket; one more pass copies only
/// those buckets' samples into a buffer sized from their counts, and each
/// bucket recurses on its own exact min and max.  A level divides the
/// bucket width by 2^10, so a 64-bit range ends within seven levels.
template <typename T>
void select_ranks(const T* x, std::size_t n, std::int64_t lo, std::int64_t hi,
                  const std::size_t* rank, std::int64_t* value, std::size_t k) {
    if (lo == hi) {
        std::fill_n(value, k, lo);
        return;
    }
    if (n <= kSortMax) {
        select_sorted(x, n, rank, value, k);
        return;
    }
    // Offsets from lo in unsigned arithmetic: hi - lo may exceed INT64_MAX.
    const auto base = static_cast<std::uint64_t>(lo);
    const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
    const int width = std::bit_width(range);
    const int shift = width > static_cast<int>(kRadixBits) ? width - static_cast<int>(kRadixBits) : 0;
    const std::size_t buckets = static_cast<std::size_t>(range >> shift) + 1;

    // Four interleaved histograms: runs of equal samples would otherwise
    // make every increment wait on the previous store to the same counter.
    // 32-bit counts suffice: 2^32 samples would be 32 GiB of one set.
    std::array<std::array<std::uint32_t, kBuckets>, 4> part;
    for (auto& p : part) std::fill_n(p.begin(), buckets, 0U);
    const auto bucket = [&](T v) {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) - base) >> shift);
    };
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        ++part[0][bucket(x[i])];
        ++part[1][bucket(x[i + 1])];
        ++part[2][bucket(x[i + 2])];
        ++part[3][bucket(x[i + 3])];
    }
    for (; i < n; ++i) ++part[0][bucket(x[i])];
    std::array<std::uint32_t, kBuckets>& count = part[0];
    for (std::size_t c = 0; c < buckets; ++c) count[c] += part[1][c] + part[2][c] + part[3][c];

    // Each rank's bucket and its rank inside it; the ranks ascend, so do
    // their buckets, and equal buckets are adjacent.
    std::array<std::size_t, kMaxRanks> bucket_of;
    std::array<std::size_t, kMaxRanks> rank_in;
    std::size_t below = 0;
    std::size_t b = 0;
    for (std::size_t j = 0; j < k; ++j) {
        while (below + count[b] <= rank[j]) below += count[b++];
        bucket_of[j] = b;
        rank_in[j] = rank[j] - below;
    }
    if (shift == 0) {  // every bucket holds one value
        for (std::size_t j = 0; j < k; ++j)
            value[j] = static_cast<std::int64_t>(base + bucket_of[j]);
        return;
    }

    // The distinct buckets, their slots, and where each slot starts in the
    // gathered samples.
    constexpr std::uint8_t kSkip = 0xFF;
    std::array<std::uint8_t, kBuckets> slot;
    std::fill_n(slot.begin(), buckets, kSkip);
    std::array<std::size_t, kMaxRanks> start;
    std::array<std::size_t, kMaxRanks> cursor;
    std::size_t slots = 0;
    std::size_t gathered = 0;
    for (std::size_t j = 0; j < k; ++j) {
        if (slot[bucket_of[j]] != kSkip) continue;
        slot[bucket_of[j]] = static_cast<std::uint8_t>(slots);
        start[slots] = cursor[slots] = gathered;
        gathered += count[bucket_of[j]];
        ++slots;
    }
    // Gather without a branch: every sample is written and the cursor
    // steps past the kept ones (so one spare cell).  With several slots,
    // their samples are then split apart in slot order.
    const auto kept = std::make_unique_for_overwrite<T[]>(gathered + 1);
    std::size_t m = 0;
    for (i = 0; i < n; ++i) {
        kept[m] = x[i];
        m += slot[bucket(x[i])] != kSkip;
    }
    std::unique_ptr<T[]> split;
    const T* buf = kept.get();
    if (slots > 1) {
        split = std::make_unique_for_overwrite<T[]>(gathered);
        for (i = 0; i < m; ++i) split[cursor[slot[bucket(kept[i])]]++] = kept[i];
        buf = split.get();
    }

    for (std::size_t j = 0; j < k;) {
        // Ranks j..e-1 fall in the same bucket.
        std::size_t e = j + 1;
        while (e < k && bucket_of[e] == bucket_of[j]) ++e;
        const std::size_t s = slot[bucket_of[j]];
        const T* seg = buf + start[s];
        const std::size_t len = count[bucket_of[j]];
        if (len <= kSortMax) {
            select_sorted(seg, len, rank_in.data() + j, value + j, e - j);
        } else {
            const auto [mn, mx] = std::minmax_element(seg, seg + len);
            select_ranks(seg, len, *mn, *mx, rank_in.data() + j, value + j, e - j);
        }
        j = e;
    }
}

/// The summary of `v`, which it only reads: an integer pass for min, max
/// and the sum, then one multiselect of the six ranks p50/p95/p99
/// interpolate between.
template <typename T>
SampleSet::Summary digest(const std::vector<T>& v) {
    SampleSet::Summary s;
    if (v.empty()) return s;
    T lo = v.front();
    T hi = v.front();
    std::uint64_t sum = 0;  // wraps instead of overflowing; see the mean
    for (const T x : v) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        sum += static_cast<std::uint64_t>(x);
    }
    const std::size_t n = v.size();
    s.count = n;
    s.min = static_cast<double>(lo);
    s.max = static_cast<double>(hi);
    // Exact while the sum of |samples| stays below 2^53: the integer sum
    // converts without rounding, as every partial double sum would have.
    s.mean = static_cast<double>(static_cast<std::int64_t>(sum)) / static_cast<double>(n);

    // Linear interpolation between ranks floor(q (n-1)) and the next one.
    // Below about 26 samples these six ranks repeat and cross (p50's upper
    // neighbour passes p95's rank below 4), so they are sorted and deduped.
    constexpr double kQ[] = {0.50, 0.95, 0.99};
    std::array<std::size_t, 3> lo_rank;
    std::array<std::size_t, 3> hi_rank;
    std::array<double, 3> frac;
    std::array<std::size_t, kMaxRanks> rank;
    for (std::size_t i = 0; i < 3; ++i) {
        const double pos = kQ[i] * static_cast<double>(n - 1);
        lo_rank[i] = static_cast<std::size_t>(pos);
        hi_rank[i] = std::min(lo_rank[i] + 1, n - 1);
        frac[i] = pos - static_cast<double>(lo_rank[i]);
        rank[2 * i] = lo_rank[i];
        rank[2 * i + 1] = hi_rank[i];
    }
    std::sort(rank.begin(), rank.end());
    const std::size_t k =
        static_cast<std::size_t>(std::unique(rank.begin(), rank.end()) - rank.begin());
    std::array<std::int64_t, kMaxRanks> value;
    select_ranks(v.data(), n, lo, hi, rank.data(), value.data(), k);

    const auto at = [&](std::size_t r) {
        return static_cast<double>(
            value[static_cast<std::size_t>(std::lower_bound(rank.begin(), rank.begin() + k, r) -
                                           rank.begin())]);
    };
    double* const out[] = {&s.p50, &s.p95, &s.p99};
    for (std::size_t i = 0; i < 3; ++i)
        *out[i] = at(lo_rank[i]) * (1.0 - frac[i]) + at(hi_rank[i]) * frac[i];
    return s;
}

}  // namespace

void SampleSet::add_wide(std::int64_t x) {
    if (wide_.empty()) widen();
    wide_.push_back(x);
}

void SampleSet::widen() {
    // Keep the reserved room, so a pre-sized set allocates once here.
    wide_.reserve(std::max(narrow_.capacity(), narrow_.size() + 1));
    wide_.assign(narrow_.begin(), narrow_.end());
    std::vector<std::uint32_t>{}.swap(narrow_);
}

void SampleSet::append(const SampleSet& other) {
    if (digest_) released("append");
    if (other.digest_) released("append (from)");
    if (&other == this) {
        if (wide()) double_in_place(wide_);
        else double_in_place(narrow_);
        return;
    }
    if (other.wide()) {
        if (!wide()) widen();
        wide_.insert(wide_.end(), other.wide_.begin(), other.wide_.end());
    } else if (wide()) {
        wide_.insert(wide_.end(), other.narrow_.begin(), other.narrow_.end());
    } else {
        narrow_.insert(narrow_.end(), other.narrow_.begin(), other.narrow_.end());
    }
}

SampleSet::Summary SampleSet::summary() const {
    if (digest_) return *digest_;
    return wide() ? digest(wide_) : digest(narrow_);
}

void SampleSet::summarize() {
    if (digest_) return;
    digest_ = summary();
    std::vector<std::uint32_t>{}.swap(narrow_);
    std::vector<std::int64_t>{}.swap(wide_);
}

}  // namespace capbench::sim
