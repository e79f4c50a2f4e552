// Machine model: logical CPUs, kernel work queue, and a small preemptive
// scheduler for capture-application threads.
//
// Execution model (Section 2.2.1 "receive interrupt load"):
//  * Kernel work (interrupt handlers, softirq processing) is serialized
//    per CPU and has absolute priority: while kernel work is pending on a
//    CPU, the thread running there makes no progress.  Single-queue NICs
//    direct every interrupt at CPU 0 — as on the 2005 systems, where the
//    NIC's interrupt line was serviced by one processor — which is what
//    produces receive livelock on single-processor configurations and the
//    large benefit of the second processor.  Multi-queue NICs spread their
//    per-queue IRQ lines across CPUs (post_kernel_work_on), turning the
//    same model into the RSS scaling story.
//  * Threads are cooperative units that issue work chunks (exec) and block
//    on kernel objects (buffers, queues, pipes, disks); the scheduler
//    dispatches ready threads onto idle CPUs.  Wakeup order is a policy
//    knob: FreeBSD inserts woken threads at the tail of the ready queue
//    (even sharing, Section 1.2), Linux at the head (the "one application
//    sees five percent, another nearly all" behaviour under overload).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capbench/hostsim/arch.hpp"
#include "capbench/hostsim/cpu.hpp"
#include "capbench/sim/inplace_function.hpp"
#include "capbench/sim/ring_buffer.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::obs {
class Registry;
class TraceSink;
}

namespace capbench::hostsim {

class Machine;

/// Continuation type for thread and kernel-work callbacks.  Small captures
/// (including whole processing batches) are stored inline; see
/// sim::InplaceFunction.
using Continuation = sim::InplaceFunction;

/// Cooperative thread written in continuation-passing style: each
/// continuation must end by calling exactly one of exec() / block() /
/// yield(), or return without any of them to terminate the thread.
class Thread {
public:
    explicit Thread(std::string name) : name_(std::move(name)) {}
    virtual ~Thread() = default;

    Thread(const Thread&) = delete;
    Thread& operator=(const Thread&) = delete;

    /// Entry point, run when the thread is first dispatched.
    virtual void main() = 0;

    enum class State : std::uint8_t { kNew, kReady, kRunning, kBlocked, kDone };

    [[nodiscard]] State state() const { return state_; }
    [[nodiscard]] const std::string& name() const { return name_; }

protected:
    /// Consumes CPU for `work`, accounted as `st`, then continues with
    /// `then`.  Only legal while running.
    void exec(const Work& work, CpuState st, Continuation then);

    /// Deschedules until wake(); `on_wake` runs when re-dispatched.
    void block(Continuation on_wake);

    /// Goes to the back of the ready queue; `then` runs when re-dispatched.
    void yield(Continuation then);

    [[nodiscard]] Machine& machine() const { return *machine_; }

private:
    friend class Machine;
    std::string name_;
    Machine* machine_ = nullptr;
    State state_ = State::kNew;
    int cpu_ = -1;
    bool action_taken_ = false;   // set by exec/block/yield within a continuation
    bool wake_pending_ = false;   // a delayed wakeup is in flight
    int trace_tid_ = -1;          // timeline lane; assigned at spawn when traced
    /// Sink-interned copy of name_ for slice events: the sink outlives the
    /// machine (the CLI serializes after the testbed is gone), so events
    /// must never point into thread-owned strings.
    const char* trace_name_ = nullptr;
    std::int64_t blocked_since_ = -1;  // ns; -1 = not in a blocked span
    Continuation resume_;
};

struct MachineSpec {
    ArchSpec arch;
    int cores = 2;
    bool hyperthreading = false;
};

struct SchedPolicy {
    bool lifo_wakeup = false;             // Linux: true; FreeBSD: false
    sim::Duration wakeup_latency{500'000};  // block() -> runnable delay
    /// Linux 2.6 keeps the running task running (long timeslices, LIFO
    /// requeue): a thread that yields goes back to the FRONT of the ready
    /// queue and keeps its CPU while it has work.  FreeBSD round-robins.
    bool lifo_yield = false;
    /// How many batches an application processes before voluntarily
    /// yielding: 1 approximates FreeBSD's tight round-robin; larger values
    /// approximate Linux 2.6's long timeslices, which is what lets one
    /// capturing application starve the others under overload
    /// (Section 6.3.3).
    int yield_every_batches = 1;
};

class Machine {
public:
    Machine(sim::Simulator& sim, MachineSpec spec, SchedPolicy policy);

    /// The queue's fixed targets point at this machine.
    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    [[nodiscard]] sim::Simulator& sim() const { return *sim_; }
    [[nodiscard]] const MachineSpec& spec() const { return spec_; }
    [[nodiscard]] int logical_cpus() const { return static_cast<int>(cpus_.size()); }
    [[nodiscard]] const Cpu& cpu(int i) const { return cpus_[static_cast<std::size_t>(i)]; }

    // ---- kernel side -------------------------------------------------------

    /// Queues `work` on CPU 0 with absolute priority; `done` runs at its
    /// completion time (delivery semantics: a packet reaches the capture
    /// stack only once its processing is paid for).
    void post_kernel_work(const Work& work, CpuState kind, Continuation done) {
        post_kernel_work_on(0, work, kind, std::move(done));
    }

    /// Queues `work` on a specific CPU — the IRQ-affinity path of
    /// multi-queue NICs (queue i interrupts CPU affinity[i]).  Kernel work
    /// is serialized and has absolute priority per CPU.
    void post_kernel_work_on(int cpu, const Work& work, CpuState kind, Continuation done);

    /// Kernel work items queued but not yet completed on one CPU (the
    /// per-CPU netdev backlog / ifqueue occupancy): its completion FIFO.
    [[nodiscard]] std::size_t kernel_queue_len(int cpu) const {
        return kernel_done_[static_cast<std::size_t>(cpu)].size();
    }

    /// How far `cpu`'s kernel queue tail is ahead of now.
    [[nodiscard]] sim::Duration kernel_backlog(int cpu) const;

    // ---- threads -----------------------------------------------------------

    /// Registers and readies a thread.  The machine keeps it alive.
    void spawn(std::shared_ptr<Thread> thread);

    /// Makes a blocked thread runnable after the policy's wakeup latency.
    /// No-op when the thread is already runnable or has a wakeup in flight.
    void wake(Thread& thread);

    /// Immediate wakeup (timer expiry path).
    void wake_now(Thread& thread);

    /// True when runnable threads are waiting for a CPU (used by
    /// cooperative threads to decide whether a timeslice has "expired").
    [[nodiscard]] bool ready_pending() const { return !ready_.empty(); }

    // ---- accounting --------------------------------------------------------

    /// Sum of busy time over all CPUs (for utilization: divide by
    /// logical_cpus() * window).
    [[nodiscard]] sim::Duration total_busy() const;

    /// Nanoseconds `work` takes right now on CPU `cpu_index` (contention
    /// and HT sibling state are sampled at call time).
    [[nodiscard]] sim::Duration work_duration(const Work& work, int cpu_index) const;

    // ---- observability -----------------------------------------------------

    /// Emits CPU slices, thread run/block spans and kernel-work slices into
    /// `trace` under process id `pid`.  Must be installed before threads
    /// are spawned; null disables tracing (hooks are branch-guarded).
    void set_trace(obs::TraceSink* trace, int pid);

    /// Scheduler event counts, kept whether or not anything observes them.
    struct SchedCounts {
        std::uint64_t dispatches = 0;
        std::uint64_t yields = 0;
        std::uint64_t wakeups = 0;
        std::uint64_t migrations = 0;
        std::uint64_t kernel_items = 0;  // kernel work items posted
    };
    [[nodiscard]] const SchedCounts& sched_counts() const { return sched_; }

    /// Registers views of the scheduler counts (`<prefix>.sched.*`) in
    /// `registry`.
    void register_metrics(obs::Registry& registry, const std::string& prefix) const;

private:
    friend class Thread;

    [[nodiscard]] bool cpu_busy(int i) const;
    [[nodiscard]] bool any_other_cpu_busy(int i) const;
    [[nodiscard]] bool sibling_busy(int i) const;
    [[nodiscard]] int pick_idle_cpu() const;  // -1 when none
    [[nodiscard]] double spill(double working_set_bytes) const;

    void enqueue_ready(Thread& thread, bool woken);
    void try_dispatch();
    void run_continuation(Thread& thread, Continuation body);
    void release_cpu(Thread& thread);
    void push_chunk_event(int cpu_index);
    void chunk_event(int cpu_index, std::uint64_t seq);
    void push_kernel_event(int cpu_index, sim::SimTime end, std::uint64_t seq);
    void kernel_work_complete(int cpu_index);

    void thread_exec(Thread& thread, const Work& work, CpuState st, Continuation then);
    void thread_block(Thread& thread, Continuation on_wake);
    void thread_yield(Thread& thread, Continuation then);

    /// The thread chunk in flight on one CPU.  Its completion is due at
    /// (end, seq); preemption moves that pair without touching the heap.
    /// The chunk's one heap entry, the CPU's chunk target, fires with
    /// `event_seq`: when it fires short of (end, seq) it re-pushes itself
    /// there, and after a migration it no longer matches and does nothing.
    struct RunningChunk {
        bool active = false;
        sim::SimTime end{};
        std::uint64_t seq = 0;
        std::uint64_t event_seq = 0;
        sim::Duration busy{};
        sim::Duration stolen{};  // time taken by preempting kernel work
        CpuState state = CpuState::kUser;
        Work work;               // for re-execution after migration
        Continuation then;
    };

    /// Pending kernel-work completion, due at (end, seq).  Each CPU
    /// serializes its kernel work, so completions run strictly FIFO per
    /// CPU and only the FIFO head holds a heap entry.
    struct KernelDone {
        sim::SimTime end{};
        std::uint64_t seq = 0;
        sim::Duration dur{};
        CpuState kind = CpuState::kInterrupt;
        Continuation done;
    };

    /// Moves the thread whose chunk on `cpu_index` has been starved by
    /// kernel work back to the ready queue (load-balancer migration).
    void migrate_chunk(int cpu_index);

    sim::Simulator* sim_;
    MachineSpec spec_;
    SchedPolicy policy_;
    /// Cache-spill multipliers of the working sets seen last, replaced
    /// round-robin: spill_factor() is a pure function of the arch and the
    /// working set, and the stacks on one machine use a handful of sets.
    /// Every entry starts as the empty working set, whose multiplier is 1.
    struct SpillEntry {
        double working_set = 0.0;
        double spill = 1.0;
    };
    mutable std::array<SpillEntry, 8> spill_cache_{};
    mutable std::size_t spill_next_ = 0;
    std::vector<Cpu> cpus_;
    std::vector<RunningChunk> chunks_;  // one per cpu
    sim::RingBuffer<Thread*> ready_;
    std::vector<sim::RingBuffer<KernelDone>> kernel_done_;  // one FIFO per cpu
    /// Fixed queue targets, one per cpu: kernel_work_complete, chunk_event.
    std::vector<sim::EventQueue::Target> kernel_targets_;
    std::vector<sim::EventQueue::Target> chunk_targets_;
    sim::EventQueue::Target dispatch_target_;  // fires try_dispatch()
    std::vector<std::shared_ptr<Thread>> threads_;
    SchedCounts sched_;
    /// True once kernel work has been posted to a CPU other than 0.  Only
    /// then does kernel_work_complete() retry thread dispatch — with every
    /// IRQ on CPU 0 (the single-queue world) the retry can never be needed
    /// and skipping it keeps that path's schedule byte-identical.
    bool kernel_spread_ = false;

    // Observability (all null/zero when disabled).
    obs::TraceSink* trace_ = nullptr;
    int trace_pid_ = 0;
    int next_trace_tid_ = 0;
    /// Kernel lanes above CPU 0 are named lazily, on the first slice they
    /// carry, so single-queue traces emit no extra metadata records.
    std::vector<bool> kernel_lane_named_;
    const char* trace_kernel_name_ = nullptr;
    const char* trace_blocked_name_ = nullptr;
    const char* cat_user_ = nullptr;
    const char* cat_system_ = nullptr;
    const char* cat_interrupt_ = nullptr;

    [[nodiscard]] const char* state_cat(CpuState st) const;
    void trace_chunk_slice(const Thread& thread, const RunningChunk& chunk);
};

}  // namespace capbench::hostsim
