#include "capbench/hostsim/machine.hpp"

#include <algorithm>
#include <stdexcept>

#include "capbench/obs/registry.hpp"
#include "capbench/obs/trace.hpp"

namespace capbench::hostsim {

void Thread::exec(const Work& work, CpuState st, Continuation then) {
    machine_->thread_exec(*this, work, st, std::move(then));
}

void Thread::block(Continuation on_wake) {
    machine_->thread_block(*this, std::move(on_wake));
}

void Thread::yield(Continuation then) {
    machine_->thread_yield(*this, std::move(then));
}

Machine::Machine(sim::Simulator& sim, MachineSpec spec, SchedPolicy policy)
    : sim_(&sim), spec_(std::move(spec)), policy_(policy) {
    if (spec_.cores < 1) throw std::invalid_argument("Machine: cores must be >= 1");
    if (spec_.hyperthreading && !spec_.arch.ht_capable)
        throw std::invalid_argument("Machine: architecture is not Hyperthreading-capable");
    const int logical = spec_.hyperthreading ? spec_.cores * 2 : spec_.cores;
    cpus_.resize(static_cast<std::size_t>(logical));
    chunks_.resize(static_cast<std::size_t>(logical));
    kernel_done_.resize(static_cast<std::size_t>(logical));
    // Each CPU's kernel-lane head and thread chunk fire fixed targets, and
    // so does the deferred dispatch after a block, yield or migration.
    auto& queue = sim_->queue();
    dispatch_target_ = queue.add_target(
        [](void* self, std::uint32_t, std::uint64_t) {
            static_cast<Machine*>(self)->try_dispatch();
        },
        this);
    for (int c = 0; c < logical; ++c) {
        const auto cpu = static_cast<std::uint32_t>(c);
        kernel_targets_.push_back(queue.add_target(
            [](void* self, std::uint32_t cpu_index, std::uint64_t) {
                static_cast<Machine*>(self)->kernel_work_complete(static_cast<int>(cpu_index));
            },
            this, cpu));
        chunk_targets_.push_back(queue.add_target(
            [](void* self, std::uint32_t cpu_index, std::uint64_t seq) {
                static_cast<Machine*>(self)->chunk_event(static_cast<int>(cpu_index), seq);
            },
            this, cpu));
    }
}

// ---- CPU state inspection ----------------------------------------------------

bool Machine::cpu_busy(int i) const {
    const auto& cpu = cpus_[static_cast<std::size_t>(i)];
    return cpu.current != nullptr || cpu.kernel_busy_until > sim_->now();
}

bool Machine::any_other_cpu_busy(int i) const {
    for (int c = 0; c < logical_cpus(); ++c) {
        if (c != i && cpu_busy(c)) return true;
    }
    return false;
}

bool Machine::sibling_busy(int i) const {
    if (!spec_.hyperthreading) return false;
    const int sibling = i ^ 1;
    return sibling < logical_cpus() && cpu_busy(sibling);
}

int Machine::pick_idle_cpu() const {
    int best = -1;
    int best_score = 1 << 30;
    // Under heavy interrupt load a CPU servicing an IRQ line makes no
    // thread progress; a real scheduler migrates tasks away from a
    // saturated CPU, so skip any CPU whose kernel queue runs deep (unless
    // it is the only CPU).  With a single-queue NIC only CPU 0 can ever be
    // saturated, which reduces this to the classic "avoid CPU 0" rule.
    const bool skip_saturated = logical_cpus() > 1;
    for (int c = 0; c < logical_cpus(); ++c) {
        if (skip_saturated && kernel_backlog(c) > sim::microseconds(30)) continue;
        if (cpus_[static_cast<std::size_t>(c)].current != nullptr) continue;
        // Prefer CPUs away from the interrupt CPU and with an idle sibling.
        int score = 0;
        if (c == 0 && logical_cpus() > 1) score += 4;
        if (cpus_[static_cast<std::size_t>(c)].kernel_busy_until > sim_->now()) score += 2;
        if (sibling_busy(c)) score += 1;
        if (score < best_score) {
            best_score = score;
            best = c;
        }
    }
    return best;
}

double Machine::spill(double working_set_bytes) const {
    for (const SpillEntry& entry : spill_cache_)
        if (entry.working_set == working_set_bytes) return entry.spill;
    SpillEntry& slot = spill_cache_[spill_next_++ % spill_cache_.size()];
    slot = SpillEntry{working_set_bytes, spill_factor(spec_.arch, working_set_bytes)};
    return slot.spill;
}

sim::Duration Machine::work_duration(const Work& work, int cpu_index) const {
    const double spill_mult = work.copy_bytes > 0.0 ? spill(work.working_set_bytes) : 1.0;
    const double ns = work_duration_ns(spec_.arch, work, any_other_cpu_busy(cpu_index),
                                       sibling_busy(cpu_index), spill_mult);
    return sim::Duration{static_cast<std::int64_t>(ns + 0.5)};
}

// ---- observability ------------------------------------------------------------

void Machine::set_trace(obs::TraceSink* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    if (trace_ == nullptr) return;
    next_trace_tid_ = obs::kThreadTidBase;
    kernel_lane_named_.assign(cpus_.size(), false);
    trace_kernel_name_ = trace_->intern("kernel");
    trace_blocked_name_ = trace_->intern("blocked");
    cat_user_ = trace_->intern("user");
    cat_system_ = trace_->intern("system");
    cat_interrupt_ = trace_->intern("interrupt");
}

void Machine::register_metrics(obs::Registry& registry, const std::string& prefix) const {
    registry.add(prefix + ".sched.dispatches", sched_.dispatches);
    registry.add(prefix + ".sched.yields", sched_.yields);
    registry.add(prefix + ".sched.wakeups", sched_.wakeups);
    registry.add(prefix + ".sched.migrations", sched_.migrations);
    registry.add(prefix + ".sched.kernel_items", sched_.kernel_items);
}

const char* Machine::state_cat(CpuState st) const {
    switch (st) {
        case CpuState::kUser: return cat_user_;
        case CpuState::kSystem: return cat_system_;
        default: return cat_interrupt_;
    }
}

void Machine::trace_chunk_slice(const Thread& thread, const RunningChunk& chunk) {
    // The slice covers the chunk's own busy time; kernel preemption shows
    // up as overlapping slices on the kernel lane, not as thread time.
    trace_->complete(trace_pid_, thread.trace_tid_, thread.trace_name_,
                     state_cat(chunk.state), chunk.end - chunk.busy, chunk.end);
}

// ---- kernel work --------------------------------------------------------------

void Machine::post_kernel_work_on(int cpu_index, const Work& work, CpuState kind,
                                  Continuation done) {
    if (cpu_index < 0 || cpu_index >= logical_cpus())
        throw std::invalid_argument("Machine::post_kernel_work_on: cpu out of range");
    if (cpu_index != 0) kernel_spread_ = true;
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    const sim::Duration dur = work_duration(work, cpu_index);
    const sim::SimTime start = std::max(sim_->now(), cpu.kernel_busy_until);
    const sim::SimTime end = start + dur;
    cpu.kernel_busy_until = end;
    // Each CPU serializes its kernel work, so completion times are
    // non-decreasing per CPU and completions are strictly FIFO per CPU.
    // Every item takes its sequence number now, but only the FIFO head
    // holds a heap entry; kernel_work_complete() pushes the next head
    // under its own (end, seq).
    auto& fifo = kernel_done_[static_cast<std::size_t>(cpu_index)];
    const std::uint64_t seq = sim_->queue().reserve();
    if (fifo.empty()) push_kernel_event(cpu_index, end, seq);
    KernelDone& item = fifo.emplace_back();
    item.end = end;
    item.seq = seq;
    item.dur = dur;
    item.kind = kind;
    item.done = std::move(done);
    ++sched_.kernel_items;

    // Kernel work preempts the thread chunk in flight on this CPU: its
    // completion target moves out by the stolen time, under a fresh
    // sequence number (chunk_event() catches up with it).  A chunk starved
    // for too long is migrated to the ready queue instead (the load
    // balancer pulling a task off a saturated CPU).
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    if (chunk.active) {
        chunk.stolen += dur;
        if (logical_cpus() > 1 && chunk.stolen > sim::milliseconds(2)) {
            migrate_chunk(cpu_index);
        } else {
            chunk.end = chunk.end + dur;
            chunk.seq = sim_->queue().reserve();
        }
    }
}

void Machine::push_kernel_event(int cpu_index, sim::SimTime end, std::uint64_t seq) {
    sim_->queue().push_reserved(end, seq, kernel_targets_[static_cast<std::size_t>(cpu_index)]);
}

void Machine::kernel_work_complete(int cpu_index) {
    auto& fifo = kernel_done_[static_cast<std::size_t>(cpu_index)];
    // Read the head where it lies; only its continuation moves out, since
    // running it may post more work and grow the FIFO.  That leaves the
    // slot nothing to release, and the next fill overwrites every field.
    KernelDone& head = fifo.front();
    const sim::Duration dur = head.dur;
    const CpuState kind = head.kind;
    Continuation done = std::move(head.done);
    fifo.drop_front();
    if (!fifo.empty()) push_kernel_event(cpu_index, fifo.front().end, fifo.front().seq);
    cpus_[static_cast<std::size_t>(cpu_index)].account(kind, dur);
    if (trace_ && dur > sim::Duration::zero()) {
        // Each CPU serializes its kernel work, so [now-dur, now) slices
        // tile that CPU's kernel lane without overlap.
        const int tid = obs::kKernelTid + cpu_index;
        if (cpu_index != 0 && !kernel_lane_named_[static_cast<std::size_t>(cpu_index)]) {
            kernel_lane_named_[static_cast<std::size_t>(cpu_index)] = true;
            trace_->set_thread_name(trace_pid_, tid,
                                    "kernel/cpu" + std::to_string(cpu_index));
        }
        trace_->complete(trace_pid_, tid, trace_kernel_name_, state_cat(kind),
                         sim_->now() - dur, sim_->now());
    }
    if (done) done();
    // IRQ affinity can saturate several CPUs at once; a thread parked
    // ready while every CPU ran deep kernel queues has no other wake
    // signal than a queue draining, so retry dispatch here.  Guarded by
    // kernel_spread_: with every IRQ on CPU 0 this retry can never
    // succeed where the existing dispatch points would not, and skipping
    // it keeps the single-queue schedule untouched.
    if (kernel_spread_ && !ready_.empty()) try_dispatch();
}

sim::Duration Machine::kernel_backlog(int cpu_index) const {
    const auto until = cpus_[static_cast<std::size_t>(cpu_index)].kernel_busy_until;
    return until > sim_->now() ? until - sim_->now() : sim::Duration::zero();
}

// ---- scheduling ----------------------------------------------------------------

void Machine::spawn(std::shared_ptr<Thread> thread) {
    if (thread->machine_ != nullptr) throw std::logic_error("Machine::spawn: thread reused");
    thread->machine_ = this;
    Thread* raw = thread.get();
    threads_.push_back(std::move(thread));
    if (trace_ != nullptr) {
        raw->trace_tid_ = next_trace_tid_++;
        raw->trace_name_ = trace_->intern(raw->name());
        trace_->set_thread_name(trace_pid_, raw->trace_tid_, raw->name());
    }
    raw->state_ = Thread::State::kReady;
    raw->resume_ = [raw] { raw->main(); };
    enqueue_ready(*raw, /*woken=*/false);
    try_dispatch();
}

void Machine::wake(Thread& thread) {
    if (thread.state_ != Thread::State::kBlocked || thread.wake_pending_) return;
    thread.wake_pending_ = true;
    sim_->schedule_in(policy_.wakeup_latency, [this, &thread] {
        thread.wake_pending_ = false;
        if (thread.state_ != Thread::State::kBlocked) return;
        thread.state_ = Thread::State::kReady;
        ++sched_.wakeups;
        enqueue_ready(thread, /*woken=*/true);
        try_dispatch();
    });
}

void Machine::wake_now(Thread& thread) {
    if (thread.state_ != Thread::State::kBlocked) return;
    thread.state_ = Thread::State::kReady;
    ++sched_.wakeups;
    enqueue_ready(thread, /*woken=*/true);
    try_dispatch();
}

void Machine::enqueue_ready(Thread& thread, bool woken) {
    if (woken && policy_.lifo_wakeup)
        ready_.push_front(&thread);
    else
        ready_.push_back(&thread);
}

void Machine::try_dispatch() {
    while (!ready_.empty()) {
        const int cpu_index = pick_idle_cpu();
        if (cpu_index < 0) return;
        Thread* thread = ready_.front();
        ready_.pop_front();
        thread->state_ = Thread::State::kRunning;
        thread->cpu_ = cpu_index;
        cpus_[static_cast<std::size_t>(cpu_index)].current = thread;
        ++sched_.dispatches;
        if (trace_ && thread->blocked_since_ >= 0) {
            trace_->complete(trace_pid_, thread->trace_tid_, trace_blocked_name_,
                             trace_blocked_name_, sim::SimTime{thread->blocked_since_},
                             sim_->now());
        }
        thread->blocked_since_ = -1;
        run_continuation(*thread, std::move(thread->resume_));
    }
}

void Machine::run_continuation(Thread& thread, Continuation body) {
    thread.action_taken_ = false;
    body();
    if (!thread.action_taken_) {
        // Continuation ended without exec/block/yield: thread is done.
        thread.state_ = Thread::State::kDone;
        release_cpu(thread);
        try_dispatch();
    }
}

void Machine::release_cpu(Thread& thread) {
    if (thread.cpu_ >= 0) {
        cpus_[static_cast<std::size_t>(thread.cpu_)].current = nullptr;
        thread.cpu_ = -1;
    }
}

void Machine::thread_exec(Thread& thread, const Work& work, CpuState st, Continuation then) {
    if (thread.state_ != Thread::State::kRunning)
        throw std::logic_error("Thread::exec outside running state");
    thread.action_taken_ = true;
    const int cpu_index = thread.cpu_;
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    if (chunk.active) throw std::logic_error("Thread::exec: chunk already in flight");

    const sim::Duration dur = work_duration(work, cpu_index);
    // Pending kernel work on this CPU runs first (it has priority).
    const sim::Duration head_of_line =
        cpu.kernel_busy_until > sim_->now() ? cpu.kernel_busy_until - sim_->now()
                                            : sim::Duration::zero();
    chunk.active = true;
    chunk.busy = dur;
    chunk.stolen = sim::Duration::zero();
    chunk.state = st;
    chunk.work = work;
    chunk.then = std::move(then);
    chunk.end = sim_->now() + head_of_line + dur;
    chunk.seq = sim_->queue().reserve();
    push_chunk_event(cpu_index);
}

void Machine::push_chunk_event(int cpu_index) {
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    chunk.event_seq = chunk.seq;
    sim_->queue().push_reserved(chunk.end, chunk.seq,
                                chunk_targets_[static_cast<std::size_t>(cpu_index)]);
}

void Machine::chunk_event(int cpu_index, std::uint64_t seq) {
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    // The chunk this event was pushed for was migrated: it is gone, or the
    // CPU runs a newer chunk with its own event.
    if (!chunk.active || seq != chunk.event_seq) return;
    // Preempted since the push: follow the target.  Compare sequence
    // numbers, not times; a zero-cost preemption moves only the seq.
    if (seq != chunk.seq) {
        push_chunk_event(cpu_index);
        return;
    }
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    Thread* thread = cpu.current;
    if (thread == nullptr)
        throw std::logic_error("Machine::chunk_event: no thread on the chunk's CPU");
    if (sim_->now() != chunk.end)
        throw std::logic_error("Machine::chunk_event: completion time mismatch");
    chunk.active = false;
    cpu.account(chunk.state, chunk.busy);
    if (trace_) trace_chunk_slice(*thread, chunk);
    run_continuation(*thread, std::move(chunk.then));
}

void Machine::migrate_chunk(int cpu_index) {
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    Thread* thread = cpu.current;
    if (!chunk.active || thread == nullptr)
        throw std::logic_error("Machine::migrate_chunk: no chunk in flight");
    chunk.active = false;
    ++sched_.migrations;
    // Re-execute the chunk's work when re-dispatched (progress made in the
    // interrupt gaps is conservatively discarded).
    thread->resume_ = [this, thread, work = chunk.work, st = chunk.state,
                       then = std::move(chunk.then)]() mutable {
        thread_exec(*thread, work, st, std::move(then));
    };
    chunk.then = nullptr;
    thread->state_ = Thread::State::kReady;
    release_cpu(*thread);
    ready_.push_back(thread);
    sim_->schedule_at(sim_->now(), dispatch_target_);
}

void Machine::thread_block(Thread& thread, Continuation on_wake) {
    if (thread.state_ != Thread::State::kRunning)
        throw std::logic_error("Thread::block outside running state");
    thread.action_taken_ = true;
    thread.state_ = Thread::State::kBlocked;
    thread.blocked_since_ = sim_->now().ns();
    thread.resume_ = std::move(on_wake);
    release_cpu(thread);
    // Give other ready threads the CPU we just freed.  Dispatch from a
    // fresh event to keep the current continuation's stack shallow.
    sim_->schedule_at(sim_->now(), dispatch_target_);
}

void Machine::thread_yield(Thread& thread, Continuation then) {
    if (thread.state_ != Thread::State::kRunning)
        throw std::logic_error("Thread::yield outside running state");
    thread.action_taken_ = true;
    thread.state_ = Thread::State::kReady;
    thread.resume_ = std::move(then);
    ++sched_.yields;
    release_cpu(thread);
    if (policy_.lifo_yield)
        ready_.push_front(&thread);
    else
        ready_.push_back(&thread);
    sim_->schedule_at(sim_->now(), dispatch_target_);
}

// ---- accounting ---------------------------------------------------------------

sim::Duration Machine::total_busy() const {
    sim::Duration sum{};
    for (const auto& cpu : cpus_) sum += cpu.busy();
    return sum;
}

}  // namespace capbench::hostsim
