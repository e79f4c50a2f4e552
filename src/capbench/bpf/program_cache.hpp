// Process-wide caches of compiled filter expressions and of verified,
// jit-compiled BPF programs.
//
// pcap::Session::set_filter takes its program from compiled_filter(), a
// memo keyed on (expression, snaplen), so each distinct expression is
// parsed, generated and optimized once per process (pcap_compile runs once
// per attach in the thesis, not once per sweep point).  Every capture stack
// then attaches the program through FilterRunner::install; under the jit
// tier that cache keys on program content, so the four endpoints of a
// sweep point (and every sweep point of a run) installing the same filter
// share one JitProgram — passed through verify_or_throw once and compiled
// to one native code mapping.
// Thread-safe: parallel sweep workers attach concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/jit/jit_program.hpp"

namespace capbench::bpf {

/// Gates `prog` through verify_or_throw (std::invalid_argument with the
/// structured finding when it is rejected) and returns its shared native
/// code, compiled at most once per distinct program.  The caller must have
/// checked JitProgram::supported().
std::shared_ptr<const JitProgram> cache_filter(const Program& prog);

/// filter::compile_filter(expression, snaplen) at the default
/// CompileOptions, memoized per (expression, snaplen) for the process.
/// Every caller gets the stored program; a bad expression throws
/// filter::FilterError on every call (failures are not stored).  The memo
/// counts nothing: each install still goes through cache_filter once.
std::shared_ptr<const Program> compiled_filter(const std::string& expression,
                                               std::uint32_t snaplen);

/// Monotonic process-wide cache statistics.  Counting is winner-only:
/// when parallel installs race on the same new program, exactly the call
/// whose insert won counts the miss/compile and every loser counts a hit,
/// so the totals depend only on the workload — not on scheduling — and
/// stay byte-identical across --jobs in the metrics output.
struct CacheStats {
    std::uint64_t lookups = 0;       // calls that returned a filter: hits + misses
    std::uint64_t hits = 0;          // served from an existing entry
    std::uint64_t misses = 0;        // created the entry == programs verified
    std::uint64_t jit_compiles = 0;  // native compilations installed
};
CacheStats cache_stats();

}  // namespace capbench::bpf
