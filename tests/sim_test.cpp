// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "capbench/net/packet.hpp"
#include "capbench/obs/metrics.hpp"
#include "capbench/sim/event_queue.hpp"
#include "capbench/sim/random.hpp"
#include "capbench/sim/ring_buffer.hpp"
#include "capbench/sim/simulator.hpp"
#include "capbench/sim/stats.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::sim {
namespace {

TEST(SimTime, ArithmeticAndComparison) {
    const SimTime t{1'000};
    const Duration d{500};
    EXPECT_EQ((t + d).ns(), 1'500);
    EXPECT_EQ((t - d).ns(), 500);
    EXPECT_EQ(((t + d) - t).ns(), 500);
    EXPECT_LT(t, t + d);
    EXPECT_EQ(SimTime{}.ns(), 0);
}

TEST(Duration, FactoriesConvert) {
    EXPECT_EQ(microseconds(3).ns(), 3'000);
    EXPECT_EQ(milliseconds(2).ns(), 2'000'000);
    EXPECT_EQ(seconds(1).ns(), 1'000'000'000);
    EXPECT_EQ(from_seconds(0.5).ns(), 500'000'000);
    EXPECT_EQ(from_seconds(1e-9).ns(), 1);
}

TEST(Duration, ArithmeticOperators) {
    EXPECT_EQ((Duration{10} + Duration{5}).ns(), 15);
    EXPECT_EQ((Duration{10} - Duration{5}).ns(), 5);
    EXPECT_EQ((Duration{10} * 3).ns(), 30);
    EXPECT_EQ((Duration{10} / 2).ns(), 5);
    Duration d{1};
    d += Duration{2};
    EXPECT_EQ(d.ns(), 3);
}

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.push(SimTime{30}, [&] { order.push_back(3); });
    q.push(SimTime{10}, [&] { order.push_back(1); });
    q.push(SimTime{20}, [&] { order.push_back(2); });
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsRunInInsertionOrder) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) q.push(SimTime{100}, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.pop_and_run(), std::logic_error);
    EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, EventCanScheduleMoreEvents) {
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) q.push(SimTime{count * 10}, chain);
    };
    q.push(SimTime{0}, chain);
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(count, 5);
}

TEST(Simulator, AdvancesClockAndStopsAtLimit) {
    Simulator sim;
    int fired = 0;
    sim.schedule_in(Duration{100}, [&] { ++fired; });
    sim.schedule_in(Duration{200}, [&] { ++fired; });
    sim.schedule_in(Duration{900}, [&] { ++fired; });
    const auto executed = sim.run(SimTime{500});
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now().ns(), 500);  // clock parked at the limit
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, ScheduleInPastThrows) {
    Simulator sim;
    sim.schedule_in(Duration{100}, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule_at(SimTime{50}, [] {}), std::logic_error);
}

TEST(Simulator, StepExecutesSingleEvent) {
    Simulator sim;
    int fired = 0;
    sim.schedule_in(Duration{1}, [&] { ++fired; });
    sim.schedule_in(Duration{2}, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

std::vector<int> drain(RingBuffer<int>& rb) {
    std::vector<int> out;
    while (!rb.empty()) {
        out.push_back(rb.front());
        rb.pop_front();
    }
    return out;
}

std::vector<int> iota_from(int first, int last) {
    std::vector<int> out(static_cast<std::size_t>(last - first + 1));
    std::iota(out.begin(), out.end(), first);
    return out;
}

TEST(RingBuffer, FifoOrderAcrossDoublingsWithAWrappedHead) {
    RingBuffer<int> rb;
    for (int i = 0; i < 10; ++i) rb.push_back(i);
    for (int i = 0; i < 6; ++i) rb.pop_front();  // head moves to slot 6
    for (int i = 10; i < 50; ++i) rb.push_back(i);  // wraps, then 16 -> 32 -> 64
    EXPECT_EQ(rb.capacity(), 64u);
    EXPECT_EQ(rb.size(), 44u);
    EXPECT_EQ(drain(rb), iota_from(6, 49));
}

TEST(RingBuffer, PushFrontAcrossGrowth) {
    RingBuffer<int> rb;
    for (int i = 0; i < 16; ++i) rb.push_back(i);  // full at the initial 16
    for (int i = -1; i >= -20; --i) rb.push_front(i);
    EXPECT_EQ(rb.capacity(), 64u);
    EXPECT_EQ(drain(rb), iota_from(-20, 15));
}

/// Default-constructs to a marker, so a slot's origin is visible.
struct Slot {
    int value = -7;
};

TEST(RingBuffer, EmplaceBackHandsOutSpareSlotsAfterGrowthAndDropFront) {
    RingBuffer<Slot> rb;
    for (int i = 0; i < 16; ++i) rb.emplace_back().value = i;
    // Growth moves the live slots and default-constructs the spare ones.
    Slot& fresh = rb.emplace_back();
    EXPECT_EQ(fresh.value, -7);
    fresh.value = 16;
    EXPECT_EQ(rb.capacity(), 32u);
    for (int i = 0; i <= 16; ++i) {
        EXPECT_EQ(rb.front().value, i);
        rb.pop_front();
    }

    // drop_front() leaves its slot as it was; pop_front() resets it.
    RingBuffer<Slot> wrap;
    for (int i = 0; i < 16; ++i) wrap.emplace_back().value = 100 + i;
    wrap.drop_front();  // vacates slot 0 without a reset
    EXPECT_EQ(wrap.emplace_back().value, 100);  // the tail wraps onto slot 0
    wrap.pop_front();  // resets slot 1
    EXPECT_EQ(wrap.emplace_back().value, -7);
    EXPECT_EQ(wrap.capacity(), 16u);
    EXPECT_EQ(wrap.front().value, 102);
}

/// Trivially copyable with no default member initialisers, like the
/// observer's stamp FIFO entries: growth leaves its spare slots
/// uninitialised.
struct Stamp {
    std::int64_t id;
    std::int64_t at;
};
static_assert(std::is_trivially_copyable_v<Stamp>);

TEST(RingBuffer, TriviallyCopyableElementsGrowAcrossAWrappedHead) {
    RingBuffer<Stamp> rb;
    for (std::int64_t i = 0; i < 16; ++i) rb.push_back(Stamp{i, 10 * i});
    for (int i = 0; i < 5; ++i) rb.drop_front();
    // Wrap the tail onto slots 0..4, filling the ring with head at slot 5.
    for (std::int64_t i = 16; i < 21; ++i) rb.push_back(Stamp{i, 10 * i});
    EXPECT_EQ(rb.capacity(), 16u);
    // Growth copies [5, 16) and then [0, 5) to the front of the new array.
    rb.push_back(Stamp{21, 210});
    EXPECT_EQ(rb.capacity(), 32u);
    // The spare slots past the copied ones are usable in place.
    for (std::int64_t i = 22; i < 32; ++i) {
        Stamp& slot = rb.emplace_back();
        slot.id = i;
        slot.at = 10 * i;
    }
    EXPECT_EQ(rb.capacity(), 32u);
    rb.push_front(Stamp{4, 40});  // wraps the head onto the last slot
    for (std::int64_t i = 32; i < 40; ++i) rb.push_back(Stamp{i, 10 * i});  // grows again
    EXPECT_EQ(rb.capacity(), 64u);
    for (std::int64_t i = 4; i < 40; ++i) {
        ASSERT_FALSE(rb.empty());
        EXPECT_EQ(rb.front().id, i);
        EXPECT_EQ(rb.front().at, 10 * i);
        rb.drop_front();
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, ClearKeepsTheCapacity) {
    RingBuffer<int> rb;
    for (int i = 0; i < 40; ++i) rb.push_back(i);
    rb.pop_front();
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 64u);
    for (int i = 0; i < 64; ++i) rb.push_back(i);
    EXPECT_EQ(rb.capacity(), 64u);
    EXPECT_EQ(drain(rb), iota_from(0, 63));
}

TEST(RingBuffer, PopFrontReleasesAPacketAcrossGrowth) {
    const auto packet = std::make_shared<const net::Packet>(1, 64, SimTime{});
    RingBuffer<net::PacketPtr> rb;
    for (int i = 0; i < 20; ++i) rb.push_back(packet);  // grows once
    EXPECT_EQ(rb.capacity(), 32u);
    EXPECT_EQ(packet.use_count(), 21);  // growth moved, never copied
    for (int i = 19; i >= 0; --i) {
        rb.pop_front();
        EXPECT_EQ(packet.use_count(), i + 1);
    }
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a{1};
    Rng b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng{7};
    for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.next_below(13), 13u);
    EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
    Rng rng{11};
    std::array<int, 8> buckets{};
    constexpr int kDraws = 80'000;
    for (int i = 0; i < kDraws; ++i) ++buckets[rng.next_below(8)];
    for (const int b : buckets) {
        EXPECT_GT(b, kDraws / 8 * 0.9);
        EXPECT_LT(b, kDraws / 8 * 1.1);
    }
}

TEST(Rng, NextInCoversBoundsInclusive) {
    Rng rng{3};
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.next_in(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.next_in(3, 2), std::invalid_argument);
}

TEST(Rng, ExponentialHasRequestedMean) {
    Rng rng{5};
    double sum = 0;
    constexpr int kDraws = 50'000;
    for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(4.0);
    EXPECT_NEAR(sum / kDraws, 4.0, 0.15);
    EXPECT_THROW(rng.next_exponential(0.0), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScale) {
    Rng rng{5};
    for (int i = 0; i < 1'000; ++i) EXPECT_GE(rng.next_pareto(1.5, 2.0), 2.0);
    EXPECT_THROW(rng.next_pareto(0.0, 1.0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng rng{9};
    for (int i = 0; i < 10'000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(SampleSet, QuantilesInterpolate) {
    SampleSet s;
    for (int i = 1; i <= 4; ++i) s.add(i);
    const SampleSet::Summary sum = s.summary();
    EXPECT_EQ(sum.count, 4u);
    EXPECT_DOUBLE_EQ(sum.min, 1.0);
    EXPECT_DOUBLE_EQ(sum.max, 4.0);
    EXPECT_DOUBLE_EQ(sum.mean, 2.5);
    // Ranks q * (n - 1) = 1.5, 2.85 and 2.97 interpolate between neighbours.
    EXPECT_DOUBLE_EQ(sum.p50, 2.5);
    EXPECT_DOUBLE_EQ(sum.p95, 3.85);
    EXPECT_DOUBLE_EQ(sum.p99, 3.97);
}

TEST(SampleSet, PercentileHelpersAndSummaryAgree) {
    // The percentile fields of summary() match the interpolated ranks
    // q * (n - 1) over 1..100: 49.5, 94.05 and 98.01 above the minimum.
    SampleSet s;
    s.reserve(100);
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_EQ(s.size(), 100u);
    const SampleSet::Summary sum = s.summary();
    EXPECT_EQ(sum.count, 100u);
    EXPECT_DOUBLE_EQ(sum.min, 1.0);
    EXPECT_DOUBLE_EQ(sum.max, 100.0);
    EXPECT_DOUBLE_EQ(sum.mean, 50.5);
    EXPECT_DOUBLE_EQ(sum.p50, 50.5);
    EXPECT_DOUBLE_EQ(sum.p95, 95.05);
    EXPECT_DOUBLE_EQ(sum.p99, 99.01);
}

TEST(SampleSet, EmptySummaryIsAllZero) {
    const SampleSet s;
    EXPECT_TRUE(s.empty());
    const SampleSet::Summary sum = s.summary();
    EXPECT_EQ(sum.count, 0u);
    EXPECT_DOUBLE_EQ(sum.min, 0.0);
    EXPECT_DOUBLE_EQ(sum.max, 0.0);
    EXPECT_DOUBLE_EQ(sum.mean, 0.0);
    EXPECT_DOUBLE_EQ(sum.p50, 0.0);
    EXPECT_DOUBLE_EQ(sum.p95, 0.0);
    EXPECT_DOUBLE_EQ(sum.p99, 0.0);
}

TEST(SampleSet, SingleSampleIsEveryQuantile) {
    SampleSet s;
    s.add(42);
    const SampleSet::Summary sum = s.summary();
    EXPECT_EQ(sum.count, 1u);
    EXPECT_DOUBLE_EQ(sum.min, 42.0);
    EXPECT_DOUBLE_EQ(sum.max, 42.0);
    EXPECT_DOUBLE_EQ(sum.p50, 42.0);
    EXPECT_DOUBLE_EQ(sum.p95, 42.0);
    EXPECT_DOUBLE_EQ(sum.p99, 42.0);
}

// The summary as a full sort computes it: sort, sum in sorted order, and
// interpolate linearly.  SampleSet selects instead of sorting and sums in
// integers; it must still match this bit for bit.
struct SortedOracle {
    std::vector<double> sorted;

    explicit SortedOracle(const std::vector<std::int64_t>& samples)
        : sorted(samples.begin(), samples.end()) {
        std::sort(sorted.begin(), sorted.end());
    }

    [[nodiscard]] double quantile(double q) const {
        if (sorted.empty()) return 0.0;
        if (sorted.size() == 1 || q <= 0.0) return sorted.front();
        if (q >= 1.0) return sorted.back();
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const auto hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    }

    [[nodiscard]] SampleSet::Summary summary() const {
        SampleSet::Summary s;
        if (sorted.empty()) return s;
        s.count = sorted.size();
        s.min = sorted.front();
        s.max = sorted.back();
        s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                 static_cast<double>(sorted.size());
        s.p50 = quantile(0.50);
        s.p95 = quantile(0.95);
        s.p99 = quantile(0.99);
        return s;
    }
};

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_same_summary(const SampleSet::Summary& got, const SampleSet::Summary& want,
                         bool check_mean, const std::string& where) {
    EXPECT_EQ(got.count, want.count) << where;
    EXPECT_EQ(bits(got.min), bits(want.min)) << where;
    EXPECT_EQ(bits(got.max), bits(want.max)) << where;
    if (check_mean) {
        EXPECT_EQ(bits(got.mean), bits(want.mean)) << where;
    }
    EXPECT_EQ(bits(got.p50), bits(want.p50)) << where;
    EXPECT_EQ(bits(got.p95), bits(want.p95)) << where;
    EXPECT_EQ(bits(got.p99), bits(want.p99)) << where;
}

/// Digests `xs` through summary() and then summarize() and compares both
/// with the sorted oracle bit for bit.  The mean is compared only while the
/// sum of |samples| stays below 2^53, where every partial double sum of the
/// oracle is an integer it can represent.
void expect_matches_oracle(const std::vector<std::int64_t>& xs, const std::string& where) {
    double abs_sum = 0.0;
    for (const std::int64_t x : xs) abs_sum += std::abs(static_cast<double>(x));
    const bool check_mean = abs_sum < 0x1p53;

    SampleSet set;
    for (const std::int64_t x : xs) set.add(x);
    const SampleSet::Summary want = SortedOracle{xs}.summary();
    expect_same_summary(set.summary(), want, check_mean, where);

    // summarize() computes the same digest, then keeps only it; size() and
    // summary() still answer from it.
    set.summarize();
    EXPECT_EQ(set.size(), xs.size()) << where;
    EXPECT_EQ(set.empty(), xs.empty()) << where;
    expect_same_summary(set.summary(), want, check_mean, where);
}

/// Set sizes 2^k - 1, 2^k and 2^k + 1 at every size where the digest's
/// layout changes: sorting gives way to counting above 2^6, the radix grows
/// by a bit at 2^8, 2^9, 2^10 and 2^11, and the four interleaved
/// histograms start at 2^10.
std::vector<std::size_t> layout_boundary_sizes() {
    std::vector<std::size_t> sizes;
    for (const int k : {6, 8, 9, 10, 11}) {
        const std::size_t p = std::size_t{1} << k;
        sizes.insert(sizes.end(), {p - 1, p, p + 1});
    }
    return sizes;
}

TEST(SampleSet, SelectionSummaryMatchesTheSortedOracleBitForBit) {
    // 0..3 cover the small-set edges (at 3, p95 and p99 share a rank); at
    // 30 p95's upper neighbour is p99's rank; at 101 every q*(n-1) the
    // summary asks for is integral, so frac is 0.
    std::vector<std::size_t> sizes = {0, 1, 2, 3, 30, 100, 101, 3000};
    for (const std::size_t n : layout_boundary_sizes()) sizes.push_back(n);
    const std::size_t num_sizes = sizes.size();
    enum Shape { kRandom, kAllEqual, kHeavyTie, kAscending, kDescending, kShapes };
    // At most 3000 < 2^12 samples of at most 2^40 ns keep every sum below
    // 2^52, so the mean is always compared.
    constexpr std::int64_t kMagnitudes[] = {1 << 10, 1 << 20, std::int64_t{1} << 40};
    // Every size x shape x magnitude, 10 times.
    const int sets = static_cast<int>(num_sizes) * kShapes * 3 * 10;

    Rng rng{2026};
    for (int i = 0; i < sets; ++i) {
        const auto u = static_cast<std::size_t>(i);
        const std::size_t n = sizes[u % num_sizes];
        const auto shape = static_cast<Shape>(u / num_sizes % kShapes);
        const std::int64_t mag = kMagnitudes[u / (num_sizes * kShapes) % 3];
        std::vector<std::int64_t> xs(n);
        const std::int64_t constant = rng.next_in(0, mag);
        for (std::int64_t& x : xs) {
            x = shape == kAllEqual   ? constant
                : shape == kHeavyTie ? rng.next_in(0, 3) * (mag / 4)
                                     : rng.next_in(0, mag);
        }
        if (shape == kAscending) std::sort(xs.begin(), xs.end());
        if (shape == kDescending) std::sort(xs.rbegin(), xs.rend());

        expect_matches_oracle(xs, "set " + std::to_string(i) + " n=" + std::to_string(n) +
                                      " shape=" + std::to_string(shape) +
                                      " mag=" + std::to_string(mag));
    }
}

TEST(SampleSet, RadixSelectionMatchesTheSortedOracleOnEdgeShapes) {
    // The shapes a radix multiselect is sensitive to: signs, the ends of
    // the int64 range, one bucket holding almost everything, heavy
    // duplication, every size around the small-set cutoff and one set
    // large enough to recurse through several levels.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    Rng rng{25};
    const auto any = [&] { return static_cast<std::int64_t>(rng.next_u64()); };
    const std::vector<std::pair<std::string, std::function<std::int64_t(std::size_t)>>> shapes = {
        {"spanning zero", [&](std::size_t) { return rng.next_in(-5000, 5000); }},
        {"near INT64_MIN", [&](std::size_t) { return kMin + rng.next_in(0, 1 << 20); }},
        {"near INT64_MAX", [&](std::size_t) { return kMax - rng.next_in(0, 1 << 20); }},
        {"both int64 ends",
         [&](std::size_t) {
             return rng.next_below(2) == 0 ? kMin + rng.next_in(0, 1000)
                                           : kMax - rng.next_in(0, 1000);
         }},
        {"whole int64 range", [&](std::size_t) { return any(); }},
        {"one far outlier",
         [&](std::size_t i) {
             return i == 0 ? std::int64_t{1} << 40 : rng.next_in(1000, 2000);
         }},
        {"few distinct values",
         [&](std::size_t) { return 5000 + 133 * rng.next_in(0, 6); }},
        {"seven percent distinct",
         [&](std::size_t i) {
             // Runs of equal values, as in fig 6.8's enqueue_ns sets.
             return i % 14 == 0 ? rng.next_in(0, 1 << 30) : std::int64_t{5492};
         }},
    };
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 130; ++n) sizes.push_back(n);
    for (const std::size_t n : layout_boundary_sizes())
        if (n > 130) sizes.push_back(n);
    sizes.push_back(1000);
    sizes.push_back(100'000);
    for (const auto& [name, sample] : shapes) {
        for (const std::size_t n : sizes) {
            std::vector<std::int64_t> xs(n);
            for (std::size_t i = 0; i < n; ++i) xs[i] = sample(i);
            expect_matches_oracle(xs, name + " n=" + std::to_string(n));
        }
    }
}

TEST(SampleSet, SelfAppendDoublesTheSet) {
    SampleSet s;
    for (int i = 1; i <= 5; ++i) s.add(i);
    s.append(s);
    EXPECT_EQ(s.size(), 10u);
    const SampleSet::Summary sum = s.summary();
    EXPECT_DOUBLE_EQ(sum.min, 1.0);
    EXPECT_DOUBLE_EQ(sum.max, 5.0);
    EXPECT_DOUBLE_EQ(sum.mean, 3.0);
    EXPECT_EQ(bits(sum.p50), bits(SortedOracle{{1, 2, 3, 4, 5, 1, 2, 3, 4, 5}}.quantile(0.5)));

    SampleSet empty;
    empty.append(empty);
    EXPECT_TRUE(empty.empty());
}

/// A set fed `xs` by add(), in order.
SampleSet set_of(const std::vector<std::int64_t>& xs) {
    SampleSet s;
    for (const std::int64_t x : xs) s.add(x);
    return s;
}

std::vector<std::int64_t> concat(std::vector<std::int64_t> a, const std::vector<std::int64_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

TEST(SampleSet, NarrowSetsTakeFourBytesASampleAndWidenAtTwoToThe32) {
    constexpr std::int64_t k2to32 = std::int64_t{1} << 32;
    SampleSet s;
    s.reserve(1000);
    EXPECT_GE(s.storage_bytes(), 1000 * sizeof(std::uint32_t));
    EXPECT_LT(s.storage_bytes(), 1000 * sizeof(std::int64_t));

    // Below 2^32 the set stays narrow; the first sample at 2^32 widens it
    // once, keeping every earlier value and the reserved room.
    Rng rng{32};
    std::vector<std::int64_t> xs;
    for (int i = 0; i < 500; ++i) xs.push_back(rng.next_in(0, k2to32 - 1));
    xs.push_back(k2to32 - 1);
    xs.push_back(0);
    for (const std::int64_t x : xs) s.add(x);
    EXPECT_FALSE(s.wide());
    expect_same_summary(s.summary(), SortedOracle{xs}.summary(), true, "narrow");

    xs.push_back(k2to32);
    s.add(k2to32);
    EXPECT_TRUE(s.wide());
    EXPECT_GE(s.storage_bytes(), 1000 * sizeof(std::int64_t));
    for (int i = 0; i < 300; ++i) {
        xs.push_back(rng.next_in(0, 3 * k2to32));
        s.add(xs.back());
    }
    EXPECT_EQ(s.size(), xs.size());
    expect_same_summary(s.summary(), SortedOracle{xs}.summary(), true, "crossed 2^32");
    // Large enough to recurse through the radix levels in both forms.
    expect_matches_oracle(concat(std::vector<std::int64_t>(5000, 7), {k2to32 + 7}),
                          "one wide outlier");
}

TEST(SampleSet, NegativeFirstSampleStartsWide) {
    SampleSet s;
    s.add(-1);
    EXPECT_TRUE(s.wide());
    Rng rng{33};
    std::vector<std::int64_t> xs{-1};
    for (int i = 0; i < 1000; ++i) {
        xs.push_back(rng.next_in(-100, 1 << 20));
        s.add(xs.back());
    }
    expect_same_summary(s.summary(), SortedOracle{xs}.summary(), true, "negative first");
    expect_matches_oracle(xs, "negative first, via the helper");
}

TEST(SampleSet, AppendCoversEveryWidthPairAndSelfAppend) {
    Rng rng{34};
    const auto narrow = [&](std::size_t n) {
        std::vector<std::int64_t> xs(n);
        for (std::int64_t& x : xs) x = rng.next_in(0, 1 << 30);
        return xs;
    };
    const auto wide = [&](std::size_t n) {
        std::vector<std::int64_t> xs = narrow(n);
        xs[n / 2] = -(std::int64_t{1} << 40);
        return xs;
    };
    struct Case {
        const char* name;
        std::vector<std::int64_t> into;
        std::vector<std::int64_t> from;
    };
    const std::vector<Case> cases = {
        {"narrow += narrow", narrow(300), narrow(200)},
        {"narrow += wide", narrow(300), wide(200)},
        {"wide += narrow", wide(300), narrow(200)},
        {"wide += wide", wide(300), wide(200)},
        {"empty += wide", {}, wide(100)},
        {"wide += empty", wide(100), {}},
    };
    for (const Case& c : cases) {
        SampleSet into = set_of(c.into);
        const SampleSet from = set_of(c.from);
        into.append(from);
        const std::vector<std::int64_t> all = concat(c.into, c.from);
        EXPECT_EQ(into.size(), all.size()) << c.name;
        EXPECT_EQ(into.wide(), from.wide() || set_of(c.into).wide()) << c.name;
        expect_same_summary(into.summary(), SortedOracle{all}.summary(), true, c.name);
        EXPECT_EQ(from.size(), c.from.size()) << c.name;  // the source is untouched
    }
    for (const auto& xs : {narrow(150), wide(150)}) {
        SampleSet s = set_of(xs);
        const bool was_wide = s.wide();
        s.append(s);
        EXPECT_EQ(s.wide(), was_wide);
        EXPECT_EQ(s.size(), 2 * xs.size());
        expect_same_summary(s.summary(), SortedOracle{concat(xs, xs)}.summary(), true,
                            was_wide ? "wide self-append" : "narrow self-append");
    }
}

TEST(SampleSet, AddNMatchesAddOneByOne) {
    // Batches that stay narrow, cross 2^32 in the middle, land on a wide
    // set, and are empty; each set must keep the values, order and width
    // of add() one by one, and digest as the sorted oracle says.
    constexpr std::int64_t k2to32 = std::int64_t{1} << 32;
    Rng rng{34};
    std::vector<std::vector<std::int64_t>> batches;
    for (const std::size_t n : {0, 1, 7, 300}) {
        batches.emplace_back(n);
        for (std::int64_t& x : batches.back()) x = rng.next_in(0, k2to32 - 1);
    }
    batches.push_back({5, 9, k2to32, 3, -2, 8});  // widens at index 2
    batches.push_back({11, 2, 40});              // onto the wide set
    SampleSet batched;
    SampleSet single;
    std::vector<std::int64_t> all;
    for (const auto& batch : batches) {
        std::size_t calls = 0;
        batched.add_n(batch.size(), [&](std::size_t i) {
            ++calls;
            return batch[i];
        });
        EXPECT_GE(calls, batch.size());
        for (const std::int64_t x : batch) single.add(x);
        all.insert(all.end(), batch.begin(), batch.end());
        EXPECT_EQ(batched.wide(), single.wide());
        EXPECT_EQ(batched.size(), all.size());
        expect_same_summary(batched.summary(), SortedOracle{all}.summary(), true,
                            "after " + std::to_string(all.size()));
    }
    EXPECT_TRUE(batched.wide());
    batched.summarize();
    EXPECT_THROW(batched.add_n(1, [](std::size_t) { return std::int64_t{1}; }),
                 std::logic_error);
}

TEST(SampleSet, MovedFromSetsStartEmpty) {
    SampleSet a;
    for (const std::int64_t x : {4, 9, 2}) a.add(x);
    SampleSet b = std::move(a);
    a.add(100);  // NOLINT(bugprone-use-after-move): a moved-from set is empty
    EXPECT_EQ(a.size(), 1u);
    expect_same_summary(a.summary(), SortedOracle{{100}}.summary(), true, "moved-from");
    expect_same_summary(b.summary(), SortedOracle{{4, 9, 2}}.summary(), true, "moved-to");
}

TEST(SampleSet, SummarizeReleasesBothStores) {
    for (const std::int64_t outlier : {std::int64_t{5}, std::int64_t{1} << 33}) {
        SampleSet s;
        s.reserve(64);
        for (int i = 0; i < 40; ++i) s.add(i);
        s.add(outlier);
        EXPECT_EQ(s.wide(), outlier > 5);
        EXPECT_GT(s.storage_bytes(), 0u);
        const SampleSet::Summary before = s.summary();
        s.summarize();
        EXPECT_EQ(s.storage_bytes(), 0u);
        EXPECT_FALSE(s.wide());
        EXPECT_EQ(s.size(), 41u);
        expect_same_summary(s.summary(), before, true, "summarized");
    }
}

TEST(SampleSet, SummarizedSetRefusesSamplesAndMerges) {
    SampleSet done;
    for (int i = 1; i <= 10; ++i) done.add(i);
    done.summarize();
    done.summarize();  // a second call keeps the same digest
    EXPECT_EQ(done.size(), 10u);
    EXPECT_DOUBLE_EQ(done.summary().mean, 5.5);

    SampleSet open;
    open.add(7);
    EXPECT_THROW(done.add(1), std::logic_error);
    EXPECT_THROW(done.append(open), std::logic_error);
    EXPECT_THROW(open.append(done), std::logic_error);
    EXPECT_EQ(open.size(), 1u);

    // RunMetrics::merge appends every latency set, so a summarized run
    // cannot take another rep, nor be merged into one.
    const auto run = [] {
        obs::RunMetrics m;
        m.enabled = true;
        m.suts.resize(1);
        m.suts[0].name = "swan";
        m.suts[0].apps.resize(1);
        m.suts[0].apps[0].latency_ns.add(3);
        m.suts[0].nic_to_kernel_ns.add(2);
        return m;
    };
    obs::RunMetrics summarized = run();
    summarized.summarize();
    EXPECT_EQ(summarized.suts[0].apps[0].latency_ns.size(), 1u);
    EXPECT_THROW(summarized.merge(run()), std::logic_error);
    obs::RunMetrics fresh = run();
    EXPECT_THROW(fresh.merge(summarized), std::logic_error);
}

}  // namespace
}  // namespace capbench::sim
