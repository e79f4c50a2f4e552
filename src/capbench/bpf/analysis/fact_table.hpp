// Per-instruction fact table: everything the verifier proves about a
// program, in one flat array the execution tiers consume.  verify() is the
// only producer (bpf/verifier.hpp): it runs each pass once and assembles
// the table from their results.
//
// The guard analysis derives `min_data_len`, the bytes of captured packet
// *data* proven present on entry to each instruction.  Only a *successful*
// packet load on every path proves this: an absolute load of (k, size)
// bytes that did not reject establishes data.size() >= k + size on every
// continuation.  This is the bound that legally licenses bounds-check
// elision.  Length guards ("jge len, 34") prove nothing here: a truncated
// capture can present fewer data bytes than its wire length claims, so a
// LEN guard never makes a load safe.
//
// It is a dataflow over insn_successors: joins take the minimum over
// incoming edges, and forward-only jumps make one pass in instruction
// order exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capbench/bpf/analysis/cfg.hpp"
#include "capbench/bpf/analysis/interp.hpp"
#include "capbench/bpf/analysis/liveness.hpp"
#include "capbench/bpf/insn.hpp"

namespace capbench::bpf::analysis {

struct InsnFacts {
    bool reachable = false;

    // Guard analysis (valid on entry to the instruction).
    std::uint32_t min_data_len = 0;

    // Packet-load facts (BPF_ABS / BPF_IND / BPF_MSH sites only).
    bool safe_load = false;       // provably in bounds: cannot reject at runtime
    bool redundant_load = false;  // an identical load already succeeded (implies safe)
    bool const_result = false;    // the produced value is one proven constant
    std::uint32_t const_value = 0;

    // Liveness: nothing the instruction writes is read afterwards.
    bool dead_store = false;
};

struct FactTable {
    std::vector<InsnFacts> insns;

    [[nodiscard]] bool empty() const { return insns.empty(); }
    [[nodiscard]] std::size_t size() const { return insns.size(); }
    const InsnFacts& operator[](std::size_t pc) const { return insns[pc]; }

    /// Assembles the table from the verifier's pass results.  `prog` must
    /// have passed validate().
    static FactTable build(const Program& prog, const Cfg& cfg, const Liveness& live,
                           const InterpResult& interp);
};

}  // namespace capbench::bpf::analysis
