// InplaceFunction ownership: each storage kind -- a trivially copyable
// closure relocated by memcpy, an inline closure with a non-trivial move,
// and a heap-fallback closure over the inline size -- is moved through
// three owners and run once.  Invocations, constructions, destructions and
// shared_ptr use counts must come out exact.
#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "capbench/sim/inplace_function.hpp"

namespace sim = capbench::sim;

namespace {

struct Counts {
    int constructed = 0;
    int destroyed = 0;
    int invoked = 0;
};

/// Counts every construction and destruction of the closure holding it.
struct Probe {
    Counts* counts;
    explicit Probe(Counts* c) : counts(c) { ++counts->constructed; }
    Probe(const Probe& other) : counts(other.counts) { ++counts->constructed; }
    Probe(Probe&& other) noexcept : counts(other.counts) { ++counts->constructed; }
    Probe& operator=(const Probe&) = delete;
    ~Probe() { ++counts->destroyed; }
};

struct SharedClosure {
    std::shared_ptr<int> token;
    Probe probe;
    void operator()() {
        ++probe.counts->invoked;
        ++*token;
    }
};

struct BigClosure {
    std::array<std::byte, sim::InplaceFunction::kInlineBytes> pad{};
    std::shared_ptr<int> token;
    Probe probe;
    void operator()() {
        ++probe.counts->invoked;
        ++*token;
    }
};

/// Moves `first`'s callable into a second owner by construction and on
/// into `third` by assignment: two relocations.  Each source is left empty.
void move_through_second_owner(sim::InplaceFunction& first, sim::InplaceFunction& third) {
    sim::InplaceFunction second{std::move(first)};
    EXPECT_FALSE(first);  // NOLINT(bugprone-use-after-move)
    third = std::move(second);
    EXPECT_FALSE(second);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(third);
}

TEST(InplaceFunction, TrivialClosureRelocatesAndRunsOnce) {
    int invoked = 0;
    const auto closure = [counter = &invoked, add = 1] { *counter += add; };
    static_assert(std::is_trivially_copyable_v<decltype(closure)>);
    static_assert(sim::InplaceFunction::fits_inline<std::decay_t<decltype(closure)>>);

    sim::InplaceFunction first{closure};
    sim::InplaceFunction owner;
    move_through_second_owner(first, owner);
    EXPECT_EQ(invoked, 0);
    owner();
    EXPECT_EQ(invoked, 1);
    owner.reset();
    EXPECT_FALSE(owner);
    EXPECT_EQ(invoked, 1);
}

TEST(InplaceFunction, SharedPtrClosureMovesAndReleasesItsCapture) {
    auto token = std::make_shared<int>(0);
    Counts counts;
    static_assert(!std::is_trivially_copyable_v<SharedClosure>);
    static_assert(sim::InplaceFunction::fits_inline<SharedClosure>);
    {
        sim::InplaceFunction first{SharedClosure{token, Probe{&counts}}};
        // The argument's Probe and the temporary closure are gone; the
        // stored closure is the one live copy.
        EXPECT_EQ(counts.constructed - counts.destroyed, 1);
        EXPECT_EQ(token.use_count(), 2);
        const int destroyed_before = counts.destroyed;

        sim::InplaceFunction owner;
        move_through_second_owner(first, owner);
        // Each inline relocation move-constructs the closure and destroys
        // the source.
        EXPECT_EQ(counts.destroyed - destroyed_before, 2);
        EXPECT_EQ(counts.constructed - counts.destroyed, 1);
        EXPECT_EQ(token.use_count(), 2);

        owner();
        EXPECT_EQ(counts.invoked, 1);
        EXPECT_EQ(*token, 1);
    }
    EXPECT_EQ(counts.constructed, counts.destroyed);
    EXPECT_EQ(counts.invoked, 1);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceFunction, HeapClosureMovesByPointer) {
    auto token = std::make_shared<int>(0);
    Counts counts;
    static_assert(sizeof(BigClosure) > sim::InplaceFunction::kInlineBytes);
    static_assert(!sim::InplaceFunction::fits_inline<BigClosure>);
    {
        sim::InplaceFunction first{BigClosure{{}, token, Probe{&counts}}};
        EXPECT_EQ(counts.constructed - counts.destroyed, 1);
        const int constructed_before = counts.constructed;
        const int destroyed_before = counts.destroyed;

        sim::InplaceFunction owner;
        move_through_second_owner(first, owner);
        // The heap closure never moves: only its pointer changes owners.
        EXPECT_EQ(counts.constructed, constructed_before);
        EXPECT_EQ(counts.destroyed, destroyed_before);
        EXPECT_EQ(token.use_count(), 2);

        owner();
        EXPECT_EQ(counts.invoked, 1);
        EXPECT_EQ(*token, 1);
    }
    EXPECT_EQ(counts.constructed, counts.destroyed);
    EXPECT_EQ(counts.invoked, 1);
    EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
