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

/// A level counts into 2^b buckets, b from bit_width(n) - 2 clamped to
/// [kMinRadixBits, kMaxRadixBits]: about n/4 to n/2 buckets, so a level's
/// fixed work (clearing the counters, finding the ranks' buckets) stays
/// below its per-sample work, and a kept bucket averages 2-4 samples.
constexpr int kMinRadixBits = 6;
constexpr int kMaxRadixBits = 10;
constexpr std::size_t kMaxBuckets = std::size_t{1} << kMaxRadixBits;
/// Sets no larger than this are sorted instead of counted.
constexpr std::size_t kSortMax = 64;
/// Sets of at least this many samples count into four interleaved
/// histograms; smaller ones into one (clearing and merging four would
/// cost more than it saves).
constexpr std::size_t kInterleaveMin = 1024;
/// The gather takes a branch per sample when the kept buckets hold under
/// 1/kSparseRatio of the samples, so the branch is predicted.
constexpr std::size_t kSparseRatio = 16;
/// Gathers up to this many samples into a buffer on the stack.
constexpr std::size_t kLocalGather = 512;
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
/// `hi`: a radix multiselect.  One counting pass over the buckets of
/// (x - lo) >> shift finds each rank's bucket; one more pass copies only
/// those buckets' samples, grouped by bucket, into a buffer sized from
/// their counts, and each bucket recurses on its own exact min and max.
/// A level divides the bucket width by at least 2^6, so a 64-bit range
/// ends within eleven levels.
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
    const int bits =
        std::clamp(static_cast<int>(std::bit_width(n)) - 2, kMinRadixBits, kMaxRadixBits);
    const int width = static_cast<int>(std::bit_width(range));
    const int shift = width > bits ? width - bits : 0;
    const std::size_t buckets = static_cast<std::size_t>(range >> shift) + 1;
    const auto bucket = [&](T v) {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) - base) >> shift);
    };

    // 32-bit counts suffice: 2^32 samples would be 32 GiB of one set.
    std::array<std::uint32_t, kMaxBuckets> count;
    std::fill_n(count.begin(), buckets, 0U);
    if (n < kInterleaveMin) {
        for (std::size_t i = 0; i < n; ++i) ++count[bucket(x[i])];
    } else {
        // Four interleaved histograms: runs of equal samples would otherwise
        // make every increment wait on the previous store to the same
        // counter.
        std::array<std::array<std::uint32_t, kMaxBuckets>, 3> part;
        for (auto& p : part) std::fill_n(p.begin(), buckets, 0U);
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            ++count[bucket(x[i])];
            ++part[0][bucket(x[i + 1])];
            ++part[1][bucket(x[i + 2])];
            ++part[2][bucket(x[i + 3])];
        }
        for (; i < n; ++i) ++count[bucket(x[i])];
        for (std::size_t c = 0; c < buckets; ++c) count[c] += part[0][c] + part[1][c] + part[2][c];
    }

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
    std::array<std::uint8_t, kMaxBuckets> slot;
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
    // One spare cell for the branchless gather below.
    std::array<T, kLocalGather + 1> local;
    std::unique_ptr<T[]> heap;
    T* const buf = gathered < local.size()
                       ? local.data()
                       : (heap = std::make_unique_for_overwrite<T[]>(gathered + 1)).get();
    if (gathered * kSparseRatio < n) {
        // Few kept samples: a rarely taken, well predicted branch writes
        // each straight into its slot.
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t s = slot[bucket(x[i])];
            if (s != kSkip) [[unlikely]] buf[cursor[s]++] = x[i];
        }
    } else {
        // Many (a bucket of ties): that branch would mispredict, so every
        // sample is written and the cursor steps past the kept ones.  With
        // several slots, the kept samples are then split apart in slot
        // order.
        std::unique_ptr<T[]> kept;
        T* const dst = slots == 1
                           ? buf
                           : (kept = std::make_unique_for_overwrite<T[]>(gathered + 1)).get();
        std::size_t m = 0;
        for (std::size_t i = 0; i < n; ++i) {
            dst[m] = x[i];
            m += slot[bucket(x[i])] != kSkip;
        }
        if (slots > 1)
            for (std::size_t i = 0; i < m; ++i) buf[cursor[slot[bucket(dst[i])]]++] = dst[i];
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

/// The summary of `v`, which it only reads, given its exact min `lo`, max
/// `hi` and wrapping integer sum: one multiselect of the six ranks
/// p50/p95/p99 interpolate between.
template <typename T>
SampleSet::Summary digest(const std::vector<T>& v, std::int64_t lo, std::int64_t hi,
                          std::uint64_t sum) {
    SampleSet::Summary s;
    if (v.empty()) return s;
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

SampleSet& SampleSet::operator=(SampleSet&& other) noexcept {
    narrow_ = std::exchange(other.narrow_, {});
    wide_ = std::exchange(other.wide_, {});
    digest_ = std::exchange(other.digest_, std::nullopt);
    lo_ = std::exchange(other.lo_, std::numeric_limits<std::int64_t>::max());
    hi_ = std::exchange(other.hi_, std::numeric_limits<std::int64_t>::min());
    sum_ = std::exchange(other.sum_, 0);
    return *this;
}

void SampleSet::append(const SampleSet& other) {
    if (digest_) released("append");
    if (other.digest_) released("append (from)");
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
    sum_ += other.sum_;  // a self-append doubles it, as it doubles the set
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
    return wide() ? digest(wide_, lo_, hi_, sum_) : digest(narrow_, lo_, hi_, sum_);
}

void SampleSet::summarize() {
    if (digest_) return;
    digest_ = summary();
    std::vector<std::uint32_t>{}.swap(narrow_);
    std::vector<std::int64_t>{}.swap(wide_);
}

}  // namespace capbench::sim
