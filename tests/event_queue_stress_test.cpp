// Stress tests for the slab-backed event queue: slot reuse under heavy
// cancellation (the ABA hazard generation stamps exist to prevent),
// clear() semantics, the live-only size accounting, and the (time, seq)
// total order checked against a reference model.
#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "capbench/sim/event_queue.hpp"
#include "capbench/sim/random.hpp"

namespace sim = capbench::sim;

namespace {

sim::SimTime at(std::int64_t ns) { return sim::SimTime{} + sim::Duration{ns}; }

TEST(EventQueueStress, RandomCancelReplayMatchesReferenceModel) {
    // Drive the slab queue and a reference model (multimap of live events
    // ordered by the same (time, push-seq) key) with one random
    // push/cancel/pop mix; every pop must execute exactly the reference
    // model's minimum.  The interleaved cancels and drains force heavy
    // slot reuse while stale handles are still alive — the ABA scenario
    // the generation stamps exist for.
    sim::Rng rng(20260806);
    sim::EventQueue q;
    std::uint64_t last_fired = 0;
    bool fired_flag = false;

    using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)
    std::multimap<Key, std::uint64_t> reference;         // -> id
    std::vector<std::pair<sim::EventHandle, Key>> pending;
    std::uint64_t next_id = 0;
    std::uint64_t ref_seq = 0;

    const auto push_one = [&](std::int64_t t) {
        const std::uint64_t id = next_id++;
        auto handle = q.push(at(t), [&last_fired, &fired_flag, id] {
            last_fired = id;
            fired_flag = true;
        });
        const Key key{t, ref_seq++};
        reference.emplace(key, id);
        pending.emplace_back(handle, key);
    };

    const auto cancel_random = [&] {
        if (pending.empty()) return;
        const std::size_t pick = static_cast<std::size_t>(rng.next_below(pending.size()));
        auto [handle, key] = pending[pick];
        if (handle.pending()) {
            handle.cancel();
            reference.erase(key);
        }
        EXPECT_FALSE(handle.pending());
        handle.cancel();  // double-cancel via a now-stale handle: no-op
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    };

    const auto pop_and_check = [&] {
        ASSERT_FALSE(reference.empty());
        fired_flag = false;
        q.pop_and_run();
        ASSERT_TRUE(fired_flag) << "pop executed nothing";
        EXPECT_EQ(last_fired, reference.begin()->second)
            << "queue violated the (time, seq) total order";
        reference.erase(reference.begin());
    };

    for (int round = 0; round < 400; ++round) {
        const int pushes = 1 + static_cast<int>(rng.next_below(8));
        for (int i = 0; i < pushes; ++i)
            push_one(static_cast<std::int64_t>(rng.next_below(50)));
        const int cancels = static_cast<int>(rng.next_below(6));
        for (int i = 0; i < cancels; ++i) cancel_random();
        const int pops = static_cast<int>(rng.next_below(5));
        for (int i = 0; i < pops && !q.empty(); ++i) pop_and_check();
        EXPECT_EQ(q.size(), reference.size());
    }
    while (!q.empty()) pop_and_check();

    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.stats().pushed, next_id);
    EXPECT_EQ(q.stats().pushed, q.stats().executed + q.stats().cancelled);
}

TEST(EventQueueStress, StaleHandleCannotCancelSlotReuse) {
    // The ABA scenario: a handle to a consumed event must not affect a new
    // event that happens to land in the same slot.
    sim::EventQueue q;
    int first_fired = 0;
    int second_fired = 0;
    auto stale = q.push(at(1), [&first_fired] { ++first_fired; });
    q.pop_and_run();
    EXPECT_EQ(first_fired, 1);
    EXPECT_EQ(q.slot_count(), 1u);

    // Same slot, new generation.
    auto fresh = q.push(at(2), [&second_fired] { ++second_fired; });
    EXPECT_EQ(q.slot_count(), 1u) << "slot was not reused";
    EXPECT_FALSE(stale.pending());
    stale.cancel();  // must not touch the new occupant
    EXPECT_TRUE(fresh.pending());
    q.pop_and_run();
    EXPECT_EQ(second_fired, 1);
}

TEST(EventQueueStress, SizeCountsLiveEventsOnly) {
    sim::EventQueue q;
    auto a = q.push(at(1), [] {});
    auto b = q.push(at(2), [] {});
    auto c = q.push(at(3), [] {});
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.cancelled_backlog(), 0u);

    // Cancellation is lazy: the heap entry stays as a tombstone until it
    // surfaces.
    b.cancel();
    EXPECT_EQ(q.size(), 2u) << "cancelled events must not count as live";
    EXPECT_EQ(q.cancelled_backlog(), 1u);
    EXPECT_FALSE(q.empty());

    a.cancel();
    c.cancel();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty()) << "a queue holding only tombstones is empty";
    EXPECT_EQ(q.cancelled_backlog(), 3u);
}

TEST(EventQueueStress, CancelAfterClearIsInert) {
    sim::EventQueue q;
    int fired = 0;
    auto before = q.push(at(5), [&fired] { ++fired; });
    auto also_before = q.push(at(6), [&fired] { ++fired; });
    also_before.cancel();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.cancelled_backlog(), 0u);

    // New events may land in the very slots the old handles reference.
    int after_fired = 0;
    auto after = q.push(at(1), [&after_fired] { ++after_fired; });
    EXPECT_FALSE(before.pending());
    before.cancel();       // stale: must not cancel the new event
    also_before.cancel();  // stale + previously cancelled: still a no-op
    EXPECT_TRUE(after.pending());
    q.pop_and_run();
    EXPECT_EQ(after_fired, 1);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueStress, ClearResetsFreelistDeterministically) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 32; ++i) handles.push_back(q.push(at(i), [] {}));
    for (int i = 0; i < 32; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    q.clear();

    // The slab is retained (no shrink) but everything is free again.
    EXPECT_EQ(q.slot_count(), 32u);
    EXPECT_EQ(q.size(), 0u);
    for (auto& h : handles) EXPECT_FALSE(h.pending());

    int fired = 0;
    for (int i = 0; i < 32; ++i) q.push(at(i), [&fired] { ++fired; });
    EXPECT_EQ(q.slot_count(), 32u) << "clear() must rebuild the freelist, not leak slots";
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(fired, 32);
}

TEST(EventQueueStress, RescheduleFromRunningActionReusesOwnSlot) {
    // The steady-state DES shape: the running action pushes its successor.
    // With a single chain the queue must never grow past one slot.
    sim::EventQueue q;
    struct Chain {
        sim::EventQueue* q;
        int* remaining;
        std::int64_t t = 0;
        void operator()() {
            if (--*remaining <= 0) return;
            q->push(at(++t), Chain{*this});
        }
    };
    int remaining = 10'000;
    q.push(at(0), Chain{&q, &remaining});
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(q.slot_count(), 1u) << "self-rescheduling must recycle the slot just freed";
}

TEST(EventQueueStress, CrossWindowAndFarFutureOrdering) {
    // Times spread over many orders of magnitude — duplicates, neighbours
    // one tick apart, power-of-two boundaries, and entries past 2^48 ns —
    // pushed out of order.  The pops must come out in exact
    // (time, push-order) sequence.
    sim::EventQueue q;
    const std::int64_t times[] = {
        0x1FFFF,        0x25000,         5,   5, 0x100, 0xFF, 0x10000,  0x123456,
        0x1'0000'0000,  0x30000,         1,   (std::int64_t{1} << 49),  0x123457,
        (std::int64_t{1} << 49) + 1,     0,   0x2FFFF, 300,   0xFFFF,
        (std::int64_t{1} << 48) - 1,     (std::int64_t{1} << 48)};
    std::multimap<std::pair<std::int64_t, int>, int> reference;
    std::vector<int> fired;
    int idx = 0;
    for (const std::int64_t t : times) {
        const int id = idx++;
        q.push(at(t), [&fired, id] { fired.push_back(id); });
        reference.emplace(std::pair{t, id}, id);
    }
    while (!q.empty()) q.pop_and_run();
    std::vector<int> expected;
    for (const auto& [key, id] : reference) expected.push_back(id);
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueStress, PeekThenEarlierPushStillPopsInTimeOrder) {
    // Simulator::run peeks next_time() before the loop body; code outside
    // the loop can then push an EARLIER event (chunked run() + re-armed
    // timeouts do exactly this).  The earlier event must pop ahead of the
    // one the peek reported.
    sim::EventQueue q;
    std::vector<int> fired;
    q.push(at(1'000), [&fired] { fired.push_back(1); });
    EXPECT_EQ(q.next_time(), at(1'000));
    q.push(at(10), [&fired] { fired.push_back(0); });
    q.push(at(500), [&fired] { fired.push_back(2); });  // between the two
    EXPECT_EQ(q.next_time(), at(10));
    q.pop_and_run();
    q.pop_and_run();
    q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<int>{0, 2, 1}));
}

}  // namespace
