// Stress tests for the slab-backed event queue: late inserts under reserved
// sequence numbers, slot reuse, clear() semantics, the size accounting, and
// the (time, seq) total order checked against a reference model.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "capbench/sim/event_queue.hpp"
#include "capbench/sim/random.hpp"

namespace sim = capbench::sim;

namespace {

sim::SimTime at(std::int64_t ns) { return sim::SimTime{} + sim::Duration{ns}; }

TEST(EventQueueStress, RandomReservedReplayMatchesReferenceModel) {
    // Drive the slab queue and a reference model (the set of scheduled
    // events ordered by the same (time, seq) key) with one random mix of pushes,
    // reservations, later reserved pushes and pops; every pop must fire
    // exactly the reference model's minimum.  A reserved push is keyed by
    // the sequence number taken at reservation, so it must pop exactly
    // where a push made at reservation time would have.  Each fired event
    // also pushes 0-2 successors from inside the running event -- plain,
    // reserved target, or a target at the running time -- which is the
    // path where the first push fills the popped root's hole.
    sim::Rng rng(20260806);
    sim::EventQueue q;

    using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)
    std::set<Key> reference;
    std::vector<std::uint64_t> reserved;                 // reserved, not yet pushed
    Key running{0, 0};                                   // last popped (time, seq)
    std::uint64_t pushes = 0;
    std::uint64_t rejected = 0;
    std::uint64_t fired = 0;
    std::uint64_t inner_pushes = 0;
    std::uint64_t successor_budget = 3'000;
    // Pushes and reservations draw from one counter; learn where it is.
    std::uint64_t ref_seq = q.reserve() + 1;

    // Every event, slot-backed or target, fires with its sequence number.
    std::function<void(std::uint64_t)> fire;
    const sim::EventQueue::Target target = q.add_target(
        [](void* self, std::uint32_t, std::uint64_t seq) {
            (*static_cast<std::function<void(std::uint64_t)>*>(self))(seq);
        },
        &fire);

    const auto push_one = [&] {
        const std::int64_t t = running.first + static_cast<std::int64_t>(rng.next_below(50));
        const std::uint64_t seq = ref_seq++;
        q.push(at(t), [&fire, seq] { fire(seq); });
        reference.insert(Key{t, seq});
        ++pushes;
    };

    const auto push_target_now = [&] {
        q.push(at(running.first), target);
        reference.insert(Key{running.first, ref_seq++});
        ++pushes;
    };

    const auto reserve_one = [&] {
        const std::uint64_t seq = q.reserve();
        EXPECT_EQ(seq, ref_seq++);
        reserved.push_back(seq);
    };

    const auto push_reserved_one = [&] {
        if (reserved.empty()) return;
        const std::size_t pick = static_cast<std::size_t>(rng.next_below(reserved.size()));
        const std::uint64_t seq = reserved[pick];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
        std::int64_t t = running.first + static_cast<std::int64_t>(rng.next_below(20));
        if (Key{t, seq} <= running) {
            // Not after the running event: rejected, and nothing scheduled.
            const std::size_t before = q.size();
            EXPECT_THROW(q.push_reserved(at(t), seq, target), std::logic_error);
            EXPECT_EQ(q.size(), before);
            ++rejected;
            t = running.first + 1 + static_cast<std::int64_t>(rng.next_below(20));
        }
        q.push_reserved(at(t), seq, target);
        reference.insert(Key{t, seq});
        ++pushes;
    };

    const auto expect_live_state = [&] {
        EXPECT_EQ(q.size(), reference.size());
        EXPECT_EQ(q.empty(), reference.empty());
        if (!reference.empty()) {
            EXPECT_EQ(q.next_time(), at(reference.begin()->first));
        }
    };

    fire = [&](std::uint64_t seq) {
        ++fired;
        ASSERT_FALSE(reference.empty());
        ASSERT_EQ(seq, reference.begin()->second)
            << "queue violated the (time, seq) total order";
        running = *reference.begin();
        reference.erase(reference.begin());
        // The popped root is a hole now; the queue must not count it.
        expect_live_state();
        const int successors =
            successor_budget > 0 ? static_cast<int>(rng.next_below(3)) : 0;
        for (int i = 0; i < successors; ++i, --successor_budget) {
            switch (rng.next_below(3)) {
                case 0: push_one(); break;
                case 1:
                    if (reserved.empty()) reserve_one();
                    push_reserved_one();
                    break;
                default: push_target_now(); break;
            }
            ++inner_pushes;
            expect_live_state();
        }
    };

    const auto pop_and_check = [&] {
        ASSERT_FALSE(reference.empty());
        const std::int64_t expected_time = reference.begin()->first;
        const std::uint64_t fired_before = fired;
        EXPECT_EQ(q.pop_and_run(), at(expected_time));
        ASSERT_EQ(fired, fired_before + 1) << "pop fired nothing";
    };

    for (int round = 0; round < 400; ++round) {
        const int ops = 1 + static_cast<int>(rng.next_below(10));
        for (int i = 0; i < ops; ++i) {
            switch (rng.next_below(3)) {
                case 0: push_one(); break;
                case 1: reserve_one(); break;
                default: push_reserved_one(); break;
            }
        }
        const int pops = static_cast<int>(rng.next_below(5));
        for (int i = 0; i < pops && !q.empty(); ++i) pop_and_check();
        expect_live_state();
    }
    while (!reserved.empty()) push_reserved_one();
    while (!q.empty()) pop_and_check();

    EXPECT_TRUE(reference.empty());
    EXPECT_GT(rejected, 0u) << "the mix never exercised a rejected pair";
    EXPECT_GT(inner_pushes, 1'000u) << "the mix rarely pushed from a running event";
    EXPECT_EQ(q.stats().pushed, pushes);
    EXPECT_EQ(q.stats().executed, pushes);
}

TEST(EventQueueStress, PushReservedRejectsAPairNotAfterTheRunningEvent) {
    sim::EventQueue q;
    std::vector<std::uint32_t> fired;
    const auto record = [](void* self, std::uint32_t arg, std::uint64_t) {
        static_cast<std::vector<std::uint32_t>*>(self)->push_back(arg);
    };
    const sim::EventQueue::Target first = q.add_target(record, &fired, 0);
    const sim::EventQueue::Target second = q.add_target(record, &fired, 1);

    const std::uint64_t early = q.reserve();
    q.push(at(100), [] {});
    q.pop_and_run();  // running: (100, a seq above `early`)

    // Equal time, lower sequence number.
    EXPECT_THROW(q.push_reserved(at(100), early, first), std::logic_error);
    // Earlier time.
    EXPECT_THROW(q.push_reserved(at(99), early, first), std::logic_error);
    // A sequence number never handed out.
    const std::uint64_t late = q.reserve();
    EXPECT_THROW(q.push_reserved(at(200), late + 1, first), std::logic_error);
    EXPECT_TRUE(q.empty()) << "a rejected push scheduled an event";

    // Equal time with a higher sequence number, or a later time with a
    // lower one, is after the running event.
    q.push_reserved(at(101), early, second);
    q.push_reserved(at(100), late, first);
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 1}));
}

TEST(EventQueueStress, TargetsFireWithTheirSeqAndUseNoSlot) {
    // A target is registered once and pushed any number of times; each
    // firing gets the registered self and argument and the sequence number
    // its entry was pushed under, and no slab slot is ever taken.
    sim::EventQueue q;
    struct Fired {
        std::uint32_t arg;
        std::uint64_t seq;
    };
    std::vector<Fired> fired;
    const auto record = [](void* self, std::uint32_t arg, std::uint64_t seq) {
        static_cast<std::vector<Fired>*>(self)->push_back(Fired{arg, seq});
    };
    const sim::EventQueue::Target a = q.add_target(record, &fired, 7);
    const sim::EventQueue::Target b = q.add_target(record, &fired, 9);
    const std::uint64_t reserved = q.reserve();
    q.push(at(5), b);
    q.push(at(5), a);
    q.push_reserved(at(5), reserved, a);
    EXPECT_EQ(q.size(), 3u);
    while (!q.empty()) q.pop_and_run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0].arg, 7u);
    EXPECT_EQ(fired[0].seq, reserved);
    EXPECT_EQ(fired[1].arg, 9u);
    EXPECT_EQ(fired[1].seq, reserved + 1);
    EXPECT_EQ(fired[2].arg, 7u);
    EXPECT_EQ(fired[2].seq, reserved + 2);
    EXPECT_EQ(q.slot_count(), 0u);
    EXPECT_EQ(q.stats().executed, 3u);
}

TEST(EventQueueStress, SizeCountsLiveEventsOnly) {
    sim::EventQueue q;
    q.push(at(1), [] {});
    q.push(at(2), [] {});
    q.push(at(3), [] {});
    EXPECT_EQ(q.size(), 3u);
    EXPECT_FALSE(q.empty());

    (void)q.reserve();  // a reservation schedules nothing
    EXPECT_EQ(q.size(), 3u);

    q.pop_and_run();
    EXPECT_EQ(q.size(), 2u);
    q.pop_and_run();
    q.pop_and_run();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, ClearResetsFreelistDeterministically) {
    sim::EventQueue q;
    for (int i = 0; i < 32; ++i) q.push(at(i), [] {});
    q.clear();

    // The slab is retained (no shrink) but everything is free again.
    EXPECT_EQ(q.slot_count(), 32u);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty());

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
