// Processor architecture model: Intel Xeon vs. AMD Opteron (Section 2.4).
//
// The thesis explains the performance gap between the two architectures by
// how they reach memory: every Xeon shares one front side bus to the
// Northbridge-attached memory with the other processor and all I/O, while
// each Opteron has an integrated memory controller and dedicated
// HyperTransport links.  We model exactly that distinction:
//
//  * `cycles` work scales with the clock (Xeon 3.06 GHz beats the 1.8 GHz
//    Opteron on pure computation — visible in the zlib experiments,
//    Figure 6.11, the one case where the Intel machines win);
//  * `mem_misses` work scales with memory latency, multiplied by a
//    contention factor when another CPU is busy (the FSB penalty — this is
//    what makes the capture path, which is dominated by cache misses on
//    fresh packet data and kernel structures, faster on the Opterons);
//  * `copy_bytes` work scales with streaming copy cost per byte, with a
//    cache-spill penalty once the working set far exceeds the cache
//    (responsible for the single-CPU FreeBSD degradation with very large
//    BPF buffers, Figure 6.4(a)).
//
// The spill multiplier is a pure function of the architecture and the
// working set, and a machine's stacks use only a handful of working sets,
// so `Machine` computes it once per working set (`spill_factor`) and
// passes it to `work_duration_ns`; the per-item arithmetic is the same
// operations in the same order either way, so durations are bit-identical.
#pragma once

#include <cstdint>
#include <string>

namespace capbench::hostsim {

struct ArchSpec {
    std::string name;
    double clock_hz = 2e9;
    double mem_latency_ns = 100.0;   // per cache miss, uncontended
    double mem_contention = 1.0;     // miss/copy multiplier when another CPU is busy
    double copy_ns_per_byte = 0.4;   // streaming copy, cache-friendly working set
    std::uint32_t cache_kb = 512;    // L2 size, for the spill penalty
    double spill_factor = 1.0;       // extra copy cost multiplier at full spill
    bool ht_capable = false;
    double ht_sibling_slowdown = 1.6;  // duration multiplier when the HT sibling is busy

    /// Dual Intel Xeon 3.06 GHz, 512 kB cache, shared FSB (snipe/flamingo).
    static const ArchSpec& intel_xeon();

    /// Dual AMD Opteron 244 (1.8 GHz), 1024 kB cache, on-die memory
    /// controller and HyperTransport (swan/moorhen).
    static const ArchSpec& amd_opteron();
};

/// A unit of work to execute on a CPU, split by what limits it.
struct Work {
    double cycles = 0.0;
    double mem_misses = 0.0;
    double copy_bytes = 0.0;
    /// Working-set size driving the cache-spill penalty for the copy part;
    /// 0 means "fits in cache".
    double working_set_bytes = 0.0;

    Work& operator+=(const Work& other) {
        cycles += other.cycles;
        mem_misses += other.mem_misses;
        copy_bytes += other.copy_bytes;
        if (other.working_set_bytes > working_set_bytes)
            working_set_bytes = other.working_set_bytes;
        return *this;
    }

    [[nodiscard]] Work scaled(double factor) const {
        return Work{cycles * factor, mem_misses * factor, copy_bytes * factor,
                    working_set_bytes};
    }
};

/// Copy-cost multiplier for a working set of `working_set_bytes`: 1 while
/// it fits the cache, ramping on a log scale to `arch.spill_factor` at 64x
/// the cache.
double spill_factor(const ArchSpec& arch, double working_set_bytes);

/// Nanoseconds `work` takes on `arch` with its copy part scaled by `spill`,
/// given whether another CPU is currently busy (FSB contention) and
/// whether the HT sibling is busy.
inline double work_duration_ns(const ArchSpec& arch, const Work& work, bool other_cpu_busy,
                               bool sibling_busy, double spill) {
    const double contention = other_cpu_busy ? arch.mem_contention : 1.0;
    double ns = work.cycles / arch.clock_hz * 1e9;
    ns += work.mem_misses * arch.mem_latency_ns * contention;
    ns += work.copy_bytes * arch.copy_ns_per_byte * contention * spill;
    if (sibling_busy) ns *= arch.ht_sibling_slowdown;
    return ns;
}

/// Nanoseconds `work` takes on `arch`: the reference form, which computes
/// the spill multiplier of `work.working_set_bytes` on every call.
inline double work_duration_ns(const ArchSpec& arch, const Work& work, bool other_cpu_busy,
                               bool sibling_busy) {
    const double spill =
        work.copy_bytes > 0.0 ? spill_factor(arch, work.working_set_bytes) : 1.0;
    return work_duration_ns(arch, work, other_cpu_busy, sibling_busy, spill);
}

}  // namespace capbench::hostsim
