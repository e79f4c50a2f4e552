// Process-wide cache of verified + decoded (and jit-compiled) BPF programs.
//
// Every capture stack attaches filters through FilterRunner::install; the
// cache keys on program content, so the four endpoints of a sweep point
// (and every sweep point of a run) installing the same filter share one
// DecodedProgram — verified once, decoded once, tagged with a monotonic
// program id — and, under the jit tier, one compiled code mapping.
// Thread-safe: parallel sweep workers attach concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/jit/jit_program.hpp"

namespace capbench::bpf {

/// One cached filter: the decoded form (always present) plus its
/// native code (null until some caller asked for it).
struct CachedFilter {
    std::shared_ptr<const DecodedProgram> decoded;
    std::shared_ptr<const JitProgram> jit;
};

/// Verifies `prog` (throwing std::invalid_argument with the structured
/// finding when it is rejected) and returns the shared decoded form;
/// with `want_jit` (caller must have checked JitProgram::supported())
/// also the native code, compiled at most once per distinct program.
CachedFilter cache_filter(const Program& prog, bool want_jit);

/// Shorthand for cache_filter(prog, false).decoded.
std::shared_ptr<const DecodedProgram> cache_decoded(const Program& prog);

/// Number of distinct programs decoded so far (test/introspection hook).
std::size_t cached_program_count();

/// Monotonic process-wide cache statistics.  Counting is winner-only:
/// when parallel installs race on the same new program, exactly the call
/// whose insert won counts the miss/compile and every loser counts a hit,
/// so the totals depend only on the workload — not on scheduling — and
/// stay byte-identical across --jobs in the metrics output.
struct CacheStats {
    std::uint64_t lookups = 0;       // cache_filter / cache_decoded calls
    std::uint64_t hits = 0;          // served from an existing entry
    std::uint64_t misses = 0;        // created the entry == programs decoded
    std::uint64_t jit_compiles = 0;  // native compilations installed
};
CacheStats cache_stats();

}  // namespace capbench::bpf
