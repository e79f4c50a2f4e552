// Tests for the CAPBENCH_* environment knobs: garbage, zero and negative
// values must fail loudly instead of silently running the wrong
// experiment (the old code fell back to defaults on unparsable input).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "capbench/harness/experiment.hpp"

namespace capbench::harness {
namespace {

/// Sets an environment variable for one test and restores the previous
/// value afterwards.
class ScopedEnv {
public:
    ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
        if (const char* old = std::getenv(name_.c_str())) {
            had_old_ = true;
            old_ = old;
        }
        if (value == nullptr)
            ::unsetenv(name_.c_str());
        else
            ::setenv(name_.c_str(), value, 1);
    }
    ~ScopedEnv() {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    std::string name_;
    bool had_old_ = false;
    std::string old_;
};

TEST(EnvKnobs, DefaultsWhenUnset) {
    const ScopedEnv packets{"CAPBENCH_PACKETS", nullptr};
    const ScopedEnv reps{"CAPBENCH_REPS", nullptr};
    const ScopedEnv jobs{"CAPBENCH_JOBS", nullptr};
    EXPECT_EQ(packets_per_run(), 300'000u);
    EXPECT_EQ(default_reps(), 1);
    EXPECT_EQ(default_jobs(), 1);
}

TEST(EnvKnobs, ValidValuesParse) {
    const ScopedEnv packets{"CAPBENCH_PACKETS", "12345"};
    const ScopedEnv reps{"CAPBENCH_REPS", "7"};
    const ScopedEnv jobs{"CAPBENCH_JOBS", "16"};
    EXPECT_EQ(packets_per_run(), 12'345u);
    EXPECT_EQ(default_reps(), 7);
    EXPECT_EQ(default_jobs(), 16);
}

TEST(EnvKnobs, GarbageIsRejectedWithTheKnobName) {
    const ScopedEnv env{"CAPBENCH_PACKETS", "lots"};
    try {
        (void)packets_per_run();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("CAPBENCH_PACKETS"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lots"), std::string::npos);
    }
}

TEST(EnvKnobs, ZeroIsRejected) {
    const ScopedEnv env{"CAPBENCH_REPS", "0"};
    EXPECT_THROW((void)default_reps(), std::runtime_error);
}

TEST(EnvKnobs, NegativeIsRejected) {
    const ScopedEnv env{"CAPBENCH_JOBS", "-4"};
    EXPECT_THROW((void)default_jobs(), std::runtime_error);
}

TEST(EnvKnobs, TrailingGarbageIsRejected) {
    const ScopedEnv env{"CAPBENCH_PACKETS", "100k"};
    EXPECT_THROW((void)packets_per_run(), std::runtime_error);
}

TEST(EnvKnobs, EmptyValueIsRejected) {
    const ScopedEnv env{"CAPBENCH_REPS", ""};
    EXPECT_THROW((void)default_reps(), std::runtime_error);
}

TEST(EnvKnobs, OutOfRangeIsRejected) {
    const ScopedEnv jobs{"CAPBENCH_JOBS", "513"};  // cap: 512 workers
    EXPECT_THROW((void)default_jobs(), std::runtime_error);
    const ScopedEnv reps{"CAPBENCH_REPS", "99999999999999999999"};
    EXPECT_THROW((void)default_reps(), std::runtime_error);
}

TEST(EnvKnobs, LeadingPlusAndWhitespaceFormsAreStrict) {
    // strtoull would skip leading whitespace; we accept '+' (a digits
    // prefix strtoull handles) but reject embedded spaces.
    const ScopedEnv spaced{"CAPBENCH_PACKETS", " 500"};
    EXPECT_THROW((void)packets_per_run(), std::runtime_error);
}

TEST(EnvKnobs, QueuesDefaultsToSingleRing) {
    const ScopedEnv env{"CAPBENCH_QUEUES", nullptr};
    EXPECT_EQ(default_queues(), 1);
}

TEST(EnvKnobs, QueuesParsesAndCapsAt16) {
    {
        const ScopedEnv env{"CAPBENCH_QUEUES", "8"};
        EXPECT_EQ(default_queues(), 8);
    }
    {
        const ScopedEnv env{"CAPBENCH_QUEUES", "17"};
        EXPECT_THROW((void)default_queues(), std::runtime_error);
    }
}

TEST(EnvKnobs, QueuesRejectsGarbageZeroNegativeEmpty) {
    {
        const ScopedEnv env{"CAPBENCH_QUEUES", "many"};
        EXPECT_THROW((void)default_queues(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_QUEUES", "0"};
        EXPECT_THROW((void)default_queues(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_QUEUES", "-2"};
        EXPECT_THROW((void)default_queues(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_QUEUES", ""};
        EXPECT_THROW((void)default_queues(), std::runtime_error);
    }
}

TEST(EnvKnobs, SampleIntervalDefaultsToZero) {
    const ScopedEnv env{"CAPBENCH_SAMPLE_INTERVAL", nullptr};
    EXPECT_EQ(sample_interval_from_env().ns(), 0);
}

TEST(EnvKnobs, SampleIntervalParsesMicroseconds) {
    const ScopedEnv env{"CAPBENCH_SAMPLE_INTERVAL", "250"};
    EXPECT_EQ(sample_interval_from_env().ns(), 250'000);
}

TEST(EnvKnobs, SampleIntervalRejectsGarbageZeroNegativeEmptyOverflow) {
    for (const char* bad : {"soon", "0", "-5", "", "1ms", " 10", "99999999999999999999",
                            "3600000001"}) {  // last: above the one-hour cap
        const ScopedEnv env{"CAPBENCH_SAMPLE_INTERVAL", bad};
        EXPECT_THROW((void)sample_interval_from_env(), std::runtime_error) << bad;
    }
}

TEST(EnvKnobs, SampleIntervalErrorNamesTheKnob) {
    const ScopedEnv env{"CAPBENCH_SAMPLE_INTERVAL", "fast"};
    try {
        (void)sample_interval_from_env();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("CAPBENCH_SAMPLE_INTERVAL"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("fast"), std::string::npos);
    }
}

TEST(EnvKnobs, AffinityDefaultsToEmpty) {
    const ScopedEnv env{"CAPBENCH_AFFINITY", nullptr};
    EXPECT_TRUE(affinity_from_env().empty());
}

TEST(EnvKnobs, AffinityParsesCommaSeparatedCpusIncludingZero) {
    const ScopedEnv env{"CAPBENCH_AFFINITY", "0,1,1,3"};
    EXPECT_EQ(affinity_from_env(), (std::vector<int>{0, 1, 1, 3}));
}

TEST(EnvKnobs, AffinitySingleEntryParses) {
    const ScopedEnv env{"CAPBENCH_AFFINITY", "0"};
    EXPECT_EQ(affinity_from_env(), (std::vector<int>{0}));
}

TEST(EnvKnobs, AffinityRejectsBadInputWithTheKnobName) {
    const ScopedEnv env{"CAPBENCH_AFFINITY", "0,x"};
    try {
        (void)affinity_from_env();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("CAPBENCH_AFFINITY"), std::string::npos);
    }
}

TEST(EnvKnobs, AffinityRejectsEmptyItemsNegativesAndRange) {
    {
        const ScopedEnv env{"CAPBENCH_AFFINITY", ""};
        EXPECT_THROW((void)affinity_from_env(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_AFFINITY", "0,,1"};
        EXPECT_THROW((void)affinity_from_env(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_AFFINITY", "1,"};  // trailing comma = empty item
        EXPECT_THROW((void)affinity_from_env(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_AFFINITY", "-1"};
        EXPECT_THROW((void)affinity_from_env(), std::runtime_error);
    }
    {
        const ScopedEnv env{"CAPBENCH_AFFINITY", "256"};
        EXPECT_THROW((void)affinity_from_env(), std::runtime_error);
    }
}

}  // namespace
}  // namespace capbench::harness
