// Tests for the host machine model: architecture cost function, kernel
// work priority, thread scheduling, accounting.
#include <gtest/gtest.h>

#include <random>

#include "capbench/hostsim/arch.hpp"
#include "capbench/hostsim/machine.hpp"

namespace capbench::hostsim {
namespace {

MachineSpec opteron_spec(int cores = 2, bool ht = false) {
    return MachineSpec{ArchSpec::amd_opteron(), cores, ht};
}

TEST(Arch, PureCyclesScaleWithClock) {
    const Work w{.cycles = 3060.0};
    const double xeon = work_duration_ns(ArchSpec::intel_xeon(), w, false, false);
    const double opteron = work_duration_ns(ArchSpec::amd_opteron(), w, false, false);
    EXPECT_NEAR(xeon, 1000.0, 1.0);  // 3060 cycles at 3.06 GHz
    EXPECT_NEAR(opteron, 1700.0, 1.0);
    EXPECT_LT(xeon, opteron);  // Intel wins pure computation (zlib case)
}

TEST(Arch, MemoryMissesFavourOpteron) {
    const Work w{.mem_misses = 10.0};
    const double xeon = work_duration_ns(ArchSpec::intel_xeon(), w, false, false);
    const double opteron = work_duration_ns(ArchSpec::amd_opteron(), w, false, false);
    EXPECT_GT(xeon, opteron * 1.8);  // FSB latency penalty
}

TEST(Arch, ContentionHurtsXeonMore) {
    const Work w{.mem_misses = 10.0};
    const auto& xeon = ArchSpec::intel_xeon();
    const auto& opteron = ArchSpec::amd_opteron();
    const double xeon_penalty = work_duration_ns(xeon, w, true, false) /
                                work_duration_ns(xeon, w, false, false);
    const double opteron_penalty = work_duration_ns(opteron, w, true, false) /
                                   work_duration_ns(opteron, w, false, false);
    EXPECT_GT(xeon_penalty, 1.3);
    EXPECT_LT(opteron_penalty, 1.1);
}

TEST(Arch, CacheSpillRaisesCopyCost) {
    const auto& arch = ArchSpec::intel_xeon();
    Work small{.copy_bytes = 1000.0, .working_set_bytes = 64.0 * 1024};
    Work huge{.copy_bytes = 1000.0, .working_set_bytes = 256.0 * 1024 * 1024};
    EXPECT_GT(work_duration_ns(arch, huge, false, false),
              1.5 * work_duration_ns(arch, small, false, false));
}

TEST(Arch, WorkAccumulates) {
    Work a{.cycles = 100, .mem_misses = 1, .copy_bytes = 10, .working_set_bytes = 5};
    const Work b{.cycles = 50, .mem_misses = 2, .copy_bytes = 20, .working_set_bytes = 99};
    a += b;
    EXPECT_DOUBLE_EQ(a.cycles, 150.0);
    EXPECT_DOUBLE_EQ(a.mem_misses, 3.0);
    EXPECT_DOUBLE_EQ(a.copy_bytes, 30.0);
    EXPECT_DOUBLE_EQ(a.working_set_bytes, 99.0);  // max, not sum
    const Work scaled = b.scaled(2.0);
    EXPECT_DOUBLE_EQ(scaled.cycles, 100.0);
}

TEST(Machine, RejectsBadSpecs) {
    sim::Simulator sim;
    EXPECT_THROW((Machine{sim, MachineSpec{ArchSpec::amd_opteron(), 0, false}, {}}),
                 std::invalid_argument);
    // Opterons are not HT capable.
    EXPECT_THROW((Machine{sim, MachineSpec{ArchSpec::amd_opteron(), 2, true}, {}}),
                 std::invalid_argument);
    Machine ht{sim, MachineSpec{ArchSpec::intel_xeon(), 2, true}, {}};
    EXPECT_EQ(ht.logical_cpus(), 4);
}

TEST(Machine, KernelWorkRunsFifoAndAccounts) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(), {}};
    std::vector<int> order;
    m.post_kernel_work(Work{.cycles = 1800}, CpuState::kInterrupt, [&] { order.push_back(1); });
    m.post_kernel_work(Work{.cycles = 1800}, CpuState::kInterrupt, [&] { order.push_back(2); });
    EXPECT_EQ(m.kernel_queue_len(0), 2u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(m.kernel_queue_len(0), 0u);
    // 3600 cycles at 1.8 GHz = 2000 ns of interrupt time on CPU 0.
    EXPECT_EQ(m.cpu(0).in_state(CpuState::kInterrupt).ns(), 2000);
    EXPECT_EQ(m.cpu(1).busy().ns(), 0);
}

TEST(Machine, CachedSpillGivesTheReferenceDuration) {
    struct Setup {
        const ArchSpec* arch;
        bool ht;
    };
    const Setup setups[] = {{&ArchSpec::intel_xeon(), false},
                            {&ArchSpec::intel_xeon(), true},
                            {&ArchSpec::amd_opteron(), false}};
    std::mt19937_64 rng{20051025};
    std::uniform_real_distribution<double> amount{0.0, 4000.0};
    for (const Setup& setup : setups) {
        const ArchSpec& arch = *setup.arch;
        const double cache = static_cast<double>(arch.cache_kb) * 1024.0;
        std::uniform_real_distribution<double> above{cache, 200.0 * cache};
        for (const bool busy : {false, true}) {
            sim::Simulator sim;
            Machine m{sim, MachineSpec{arch, 2, setup.ht}, {}};
            // Long kernel items keep every CPU but 0 busy; with HT, CPU 1
            // is CPU 0's sibling.
            if (busy) {
                for (int c = 1; c < m.logical_cpus(); ++c)
                    m.post_kernel_work_on(c, Work{.cycles = 1e9}, CpuState::kInterrupt, [] {});
            }
            const bool sibling = busy && setup.ht;
            for (int block = 0; block < 200; ++block) {
                // Two working sets drawn from below, at and above the
                // cache (and past the 64x saturation), used alternately.
                double sets[2];
                for (double& ws : sets) {
                    switch (rng() % 5) {
                    case 0: ws = 0.0; break;
                    case 1: ws = cache / 2.0; break;
                    case 2: ws = cache; break;
                    case 3: ws = 2.0 * cache; break;
                    default: ws = above(rng); break;
                    }
                }
                for (int i = 0; i < 50; ++i) {
                    const Work w{.cycles = amount(rng),
                                 .mem_misses = amount(rng) / 100.0,
                                 .copy_bytes = rng() % 3 == 0 ? 0.0 : amount(rng),
                                 .working_set_bytes = sets[i % 2]};
                    const double ref = work_duration_ns(arch, w, busy, sibling);
                    ASSERT_EQ(m.work_duration(w, 0).ns(), static_cast<std::int64_t>(ref + 0.5))
                        << arch.name << " ht=" << setup.ht << " busy=" << busy
                        << " ws=" << w.working_set_bytes << " copy=" << w.copy_bytes;
                }
            }
        }
    }
}

/// Thread that runs one chunk of work then exits.
class OneShot : public Thread {
public:
    OneShot(Work w, CpuState st) : Thread("oneshot"), work_(w), state_(st) {}
    void main() override {
        exec(work_, state_, [this] { done = true; });
    }
    bool done = false;

private:
    Work work_;
    CpuState state_;
};

TEST(Machine, ThreadExecutesAndAccountsUserTime) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(), {}};
    auto t = std::make_shared<OneShot>(Work{.cycles = 1800}, CpuState::kUser);
    m.spawn(t);
    sim.run();
    EXPECT_TRUE(t->done);
    EXPECT_EQ(t->state(), Thread::State::kDone);
    // Dispatcher prefers a CPU away from the interrupt CPU 0.
    EXPECT_EQ(m.cpu(1).in_state(CpuState::kUser).ns(), 1000);
}

TEST(Machine, SingleCpuKernelWorkDelaysThread) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(1), {}};
    auto t = std::make_shared<OneShot>(Work{.cycles = 18000}, CpuState::kUser);
    // Kernel work queued first occupies the only CPU.
    m.post_kernel_work(Work{.cycles = 18000}, CpuState::kInterrupt, {});
    m.spawn(t);
    sim.run();
    EXPECT_TRUE(t->done);
    // Thread completion = kernel 10us + own 10us.
    EXPECT_EQ(sim.now().ns(), 20'000);
}

/// Thread that blocks immediately and records its wake time.
class Sleeper : public Thread {
public:
    Sleeper() : Thread("sleeper") {}
    void main() override {
        block([this] { woke_at = machine().sim().now(); });
    }
    sim::SimTime woke_at{sim::SimTime::max()};
};

TEST(Machine, WakeupLatencyApplies) {
    sim::Simulator sim;
    SchedPolicy policy;
    policy.wakeup_latency = sim::microseconds(500);
    Machine m{sim, opteron_spec(), policy};
    auto t = std::make_shared<Sleeper>();
    m.spawn(t);
    sim.run(sim::SimTime{} + sim::milliseconds(1));
    EXPECT_EQ(t->state(), Thread::State::kBlocked);
    m.wake(*t);
    sim.run();
    EXPECT_EQ((t->woke_at - sim::SimTime{sim::milliseconds(1).ns()}).ns(),
              sim::microseconds(500).ns());
}

TEST(Machine, WakeNowSkipsLatencyAndIsIdempotent) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(), {}};
    auto t = std::make_shared<Sleeper>();
    m.spawn(t);
    sim.run();
    m.wake_now(*t);
    m.wake_now(*t);  // no-op on a runnable thread
    sim.run();
    EXPECT_EQ(t->state(), Thread::State::kDone);
}

/// Thread that records its scheduling order.
class OrderedThread : public Thread {
public:
    OrderedThread(std::vector<std::string>* log, std::string name)
        : Thread(std::move(name)), log_(log) {}
    void main() override {
        block([this] {
            log_->push_back(name());
            exec(Work{.cycles = 1800}, CpuState::kUser, [] {});
        });
    }

private:
    std::vector<std::string>* log_;
};

TEST(Machine, FifoVersusLifoWakeupOrder) {
    for (const bool lifo : {false, true}) {
        sim::Simulator sim;
        SchedPolicy policy;
        policy.lifo_wakeup = lifo;
        policy.wakeup_latency = sim::Duration::zero();
        Machine m{sim, opteron_spec(1), policy};  // one CPU forces queueing
        std::vector<std::string> log;
        auto a = std::make_shared<OrderedThread>(&log, "a");
        auto b = std::make_shared<OrderedThread>(&log, "b");
        auto c = std::make_shared<OrderedThread>(&log, "c");
        m.spawn(a);
        m.spawn(b);
        m.spawn(c);
        sim.run();  // all block
        // Keep the only CPU busy with a running thread so woken threads
        // queue up instead of dispatching one by one.
        auto hog = std::make_shared<OneShot>(Work{.cycles = 1'800'000}, CpuState::kUser);
        m.spawn(hog);
        m.wake(*a);
        m.wake(*b);
        m.wake(*c);
        sim.run();
        if (lifo)
            EXPECT_EQ(log, (std::vector<std::string>{"c", "b", "a"}));
        else
            EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
    }
}

TEST(Machine, KernelWorkPreemptsRunningChunk) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(1), {}};
    auto t = std::make_shared<OneShot>(Work{.cycles = 18'000}, CpuState::kUser);
    m.spawn(t);
    sim.run(sim::SimTime{} + sim::microseconds(2));  // chunk in flight (10us total)
    m.post_kernel_work(Work{.cycles = 9'000}, CpuState::kInterrupt, {});
    sim.run();
    EXPECT_TRUE(t->done);
    // 10us of thread work + 5us stolen by the interrupt.
    EXPECT_EQ(sim.now().ns(), 15'000);
    EXPECT_EQ(m.cpu(0).in_state(CpuState::kUser).ns(), 10'000);
    EXPECT_EQ(m.cpu(0).in_state(CpuState::kInterrupt).ns(), 5'000);
}

/// Thread that runs one chunk, then logs and counts its completion.
class LoggedChunk : public Thread {
public:
    LoggedChunk(Work w, std::vector<std::string>* log) : Thread("logged"), work_(w), log_(log) {}
    void main() override {
        exec(work_, CpuState::kUser, [this] {
            ++completions;
            done_at = machine().sim().now();
            if (log_ != nullptr) log_->push_back("chunk");
        });
    }
    int completions = 0;
    sim::SimTime done_at{sim::SimTime::max()};

private:
    Work work_;
    std::vector<std::string>* log_;
};

TEST(Machine, PreemptedChunkKeepsTieOrderInBothDirections) {
    // A 10 us chunk on the only CPU; at 2 us a kernel item moves its end
    // by the stolen time (5 us, or nothing: a zero-cost item moves only
    // the completion's sequence number).  An event scheduled at the new
    // end before that preemption runs ahead of the chunk; one scheduled
    // after it runs behind.
    for (const std::int64_t stolen_us : {5, 0}) {
        for (const bool event_first : {true, false}) {
            sim::Simulator sim;
            Machine m{sim, opteron_spec(1), {}};
            std::vector<std::string> log;
            auto t = std::make_shared<LoggedChunk>(Work{.cycles = 18'000}, &log);
            m.spawn(t);
            sim.run(sim::SimTime{} + sim::microseconds(2));
            const auto end = sim::SimTime{} + sim::microseconds(10 + stolen_us);
            const auto schedule_event = [&] {
                sim.schedule_at(end, [&log] { log.push_back("event"); });
            };
            if (event_first) schedule_event();
            m.post_kernel_work(Work{.cycles = 1'800.0 * static_cast<double>(stolen_us)},
                               CpuState::kInterrupt, {});
            if (!event_first) schedule_event();
            sim.run();
            EXPECT_EQ(t->done_at, end);
            if (event_first)
                EXPECT_EQ(log, (std::vector<std::string>{"event", "chunk"}));
            else
                EXPECT_EQ(log, (std::vector<std::string>{"chunk", "event"}));
        }
    }
}

TEST(Machine, QueuedKernelItemKeepsTieOrderInBothDirections) {
    // Two 5 us kernel items on CPU 0; only the first holds a heap entry
    // until it completes.  An event at the second's end (10 us) scheduled
    // before the second is posted runs ahead of it; one scheduled after
    // runs behind.
    for (const bool event_first : {true, false}) {
        sim::Simulator sim;
        Machine m{sim, opteron_spec(1), {}};
        std::vector<std::string> log;
        const auto at_10us = sim::SimTime{} + sim::microseconds(10);
        const auto schedule_event = [&] {
            sim.schedule_at(at_10us, [&log] { log.push_back("event"); });
        };
        m.post_kernel_work(Work{.cycles = 9'000}, CpuState::kInterrupt,
                           [&log] { log.push_back("first"); });
        if (event_first) schedule_event();
        m.post_kernel_work(Work{.cycles = 9'000}, CpuState::kInterrupt,
                           [&log] { log.push_back("second"); });
        if (!event_first) schedule_event();
        sim.run();
        if (event_first)
            EXPECT_EQ(log, (std::vector<std::string>{"first", "event", "second"}));
        else
            EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "event"}));
    }
}

TEST(Machine, RepeatedPreemptionCompletesOnceAtTheSummedEnd) {
    // Issue at 0 behind 2 us of queued kernel work, 10 us of own work, then
    // five preemptions stealing 1, 0, 2, 3 and 1 us: one completion at
    // 2 + 10 + 7 = 19 us.  The zero-cost preemption moves only the
    // completion's sequence number.
    sim::Simulator sim;
    Machine m{sim, opteron_spec(1), {}};
    m.post_kernel_work(Work{.cycles = 3'600}, CpuState::kInterrupt, {});
    auto t = std::make_shared<LoggedChunk>(Work{.cycles = 18'000}, nullptr);
    m.spawn(t);
    const double stolen_us[] = {1, 0, 2, 3, 1};
    std::int64_t at_us = 3;
    for (const double us : stolen_us) {
        sim.run(sim::SimTime{} + sim::microseconds(at_us));
        m.post_kernel_work(Work{.cycles = 1'800.0 * us}, CpuState::kInterrupt, {});
        at_us += 2;
    }
    sim.run();
    EXPECT_EQ(t->completions, 1);
    EXPECT_EQ(t->done_at, sim::SimTime{} + sim::microseconds(19));
    EXPECT_EQ(m.cpu(0).in_state(CpuState::kUser).ns(), 10'000);
    EXPECT_EQ(m.cpu(0).in_state(CpuState::kInterrupt).ns(), 9'000);
}

TEST(Machine, MigratedChunkRunsItsContinuationOnce) {
    // The chunk (10 ms) starts on CPU 1; a hog holds CPU 0.  At 1 us,
    // 2.1 ms of kernel work on CPU 1 starves the chunk past the 2 ms limit
    // and it migrates.  When CPU 1 drains at 2.101 ms the thread is
    // re-dispatched there and re-executes its work, so the old chunk's
    // event fires at 10 ms while a newer chunk runs on the same CPU.  It
    // must do nothing: one completion, at 12.101 ms, and exactly the
    // re-executed work accounted.
    sim::Simulator sim;
    Machine m{sim, opteron_spec(2), {}};
    auto t = std::make_shared<LoggedChunk>(Work{.cycles = 18'000'000}, nullptr);
    auto hog = std::make_shared<OneShot>(Work{.cycles = 36'000'000}, CpuState::kUser);
    m.spawn(t);
    m.spawn(hog);
    sim.run(sim::SimTime{} + sim::microseconds(1));
    m.post_kernel_work_on(1, Work{.cycles = 3'780'000}, CpuState::kInterrupt, {});
    sim.run(sim::SimTime{} + sim::milliseconds(11));
    // Past the orphan: only the new chunk's and the hog's completions are
    // scheduled; the orphan pushed nothing.
    EXPECT_EQ(sim.queue().size(), 2u);
    sim.run();
    EXPECT_EQ(m.sched_counts().migrations, 1u);
    EXPECT_EQ(t->completions, 1);
    EXPECT_EQ(t->done_at, sim::SimTime{} + sim::microseconds(12'101));
    EXPECT_EQ(m.cpu(1).in_state(CpuState::kUser).ns(), 10'000'000);
    EXPECT_EQ(m.cpu(1).in_state(CpuState::kInterrupt).ns(), 2'100'000);
    EXPECT_EQ(m.cpu(0).in_state(CpuState::kUser).ns(), 20'000'000);
    EXPECT_EQ(m.total_busy().ns(), 32'100'000);
}

TEST(Machine, DualCpuRunsKernelAndThreadInParallel) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(2), {}};
    auto t = std::make_shared<OneShot>(Work{.cycles = 18'000}, CpuState::kUser);
    m.spawn(t);
    m.post_kernel_work(Work{.cycles = 18'000}, CpuState::kInterrupt, {});
    sim.run();
    // Both 10us jobs overlap on different CPUs.
    EXPECT_EQ(sim.now().ns(), 10'000);
}

TEST(Machine, UtilizationSince) {
    sim::Simulator sim;
    Machine m{sim, opteron_spec(2), {}};
    m.post_kernel_work(Work{.cycles = 18'000}, CpuState::kInterrupt, {});
    sim.run();
    // One 10us job over a 10us window on 2 CPUs: 10us busy (50%).
    EXPECT_EQ(sim.now().ns(), 10'000);
    EXPECT_EQ(m.total_busy().ns(), 10'000);
}

TEST(Machine, YieldRoundRobins) {
    // Two threads alternating via yield on a single CPU.
    class Yielder : public Thread {
    public:
        Yielder(std::vector<std::string>* log, std::string name, int rounds)
            : Thread(std::move(name)), log_(log), rounds_(rounds) {}
        void main() override { step(); }
        void step() {
            log_->push_back(name());
            if (--rounds_ <= 0) return;
            exec(Work{.cycles = 180}, CpuState::kUser,
                 [this] { yield([this] { step(); }); });
        }

    private:
        std::vector<std::string>* log_;
        int rounds_;
    };
    sim::Simulator sim;
    Machine m{sim, opteron_spec(1), {}};
    std::vector<std::string> log;
    auto a = std::make_shared<Yielder>(&log, "a", 2);
    auto b = std::make_shared<Yielder>(&log, "b", 2);
    m.spawn(a);
    m.spawn(b);
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(Machine, HyperthreadingSiblingSlowdown) {
    sim::Simulator sim;
    Machine m{sim, MachineSpec{ArchSpec::intel_xeon(), 1, true}, {}};
    // CPU 0 busy with kernel work; the sibling (CPU 1) runs a thread slower.
    m.post_kernel_work(Work{.cycles = 3'060'000}, CpuState::kInterrupt, {});  // 1ms
    auto t = std::make_shared<OneShot>(Work{.cycles = 306'000}, CpuState::kUser);  // 100us base
    m.spawn(t);
    sim.run();
    EXPECT_TRUE(t->done);
    // The thread landed on the sibling and was inflated by the HT factor.
    EXPECT_EQ(m.cpu(1).in_state(CpuState::kUser).ns(), 160'000);
}

}  // namespace
}  // namespace capbench::hostsim
