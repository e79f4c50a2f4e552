#include "capbench/bpf/analysis/fact_table.hpp"

#include <algorithm>
#include <limits>

namespace capbench::bpf::analysis {

namespace {

std::uint32_t load_size_bytes(std::uint16_t code) {
    switch (bpf_size(code)) {
        case BPF_W: return 4;
        case BPF_H: return 2;
        default: return 1;
    }
}

bool is_packet_load(const Insn& insn) {
    const std::uint16_t code = insn.code;
    if (bpf_class(code) == BPF_LD)
        return bpf_mode(code) == BPF_ABS || bpf_mode(code) == BPF_IND;
    if (bpf_class(code) == BPF_LDX) return bpf_mode(code) == BPF_MSH;
    return false;
}

/// Data bytes the load proves present once it has *succeeded*; 0 when the
/// proof depends on X and X's lower bound is unknown here.
std::uint64_t proven_on_success(const Insn& insn, const AbsState* st) {
    const std::uint16_t code = insn.code;
    switch (bpf_mode(code)) {
        case BPF_ABS:
            return static_cast<std::uint64_t>(insn.k) + load_size_bytes(code);
        case BPF_MSH:
            return static_cast<std::uint64_t>(insn.k) + 1;
        case BPF_IND:
            if (st == nullptr) return 0;
            return static_cast<std::uint64_t>(st->x.lo) + insn.k + load_size_bytes(code);
        default:
            return 0;
    }
}

/// Largest offset the load may touch, or nullopt when unbounded (an IND
/// load with an unknown X upper bound cannot be proven by any guard).
std::uint64_t worst_case_extent(const Insn& insn, const AbsState* st) {
    const std::uint16_t code = insn.code;
    switch (bpf_mode(code)) {
        case BPF_ABS:
            return static_cast<std::uint64_t>(insn.k) + load_size_bytes(code);
        case BPF_MSH:
            return static_cast<std::uint64_t>(insn.k) + 1;
        case BPF_IND:
            if (st == nullptr) return std::numeric_limits<std::uint64_t>::max();
            return static_cast<std::uint64_t>(st->x.hi) + insn.k + load_size_bytes(code);
        default:
            return 0;
    }
}

}  // namespace

FactTable FactTable::build(const Program& prog, const Cfg& cfg, const Liveness& live,
                           const InterpResult& interp) {
    FactTable table;
    const std::size_t n = prog.size();
    table.insns.resize(n);
    if (n == 0) return table;

    // Guard dataflow: min proven data length on entry, joined with min()
    // over incoming edges.  kTop marks "no edge reached yet".
    constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> data_in(n, kTop);
    data_in[0] = 0;

    for (std::size_t pc = 0; pc < n; ++pc) {
        InsnFacts& f = table.insns[pc];
        f.reachable = pc < cfg.reachable.size() && cfg.reachable[pc];
        f.dead_store = live.dead_store[pc];
        if (!f.reachable) continue;

        const Insn& insn = prog[pc];
        const AbsState* st = interp.in[pc] ? &*interp.in[pc] : nullptr;
        const std::uint64_t g = data_in[pc] == kTop ? 0 : data_in[pc];
        f.min_data_len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(g, std::numeric_limits<std::uint32_t>::max()));

        if (is_packet_load(insn)) {
            f.redundant_load = st != nullptr && load_known_safe(insn, *st);
            f.safe_load = f.redundant_load || worst_case_extent(insn, st) <= g;
        } else if (bpf_class(insn.code) == BPF_LD || bpf_class(insn.code) == BPF_LDX) {
            f.safe_load = true;  // IMM / LEN / MEM loads cannot reject
        }

        // Constant result: replay the abstract transfer and check the
        // written register.  The domain over-approximates every concrete
        // execution, so a singleton here is a proof.
        if (st != nullptr &&
            (bpf_class(insn.code) == BPF_LD || bpf_class(insn.code) == BPF_LDX)) {
            AbsState after = *st;
            if (apply(insn, after)) {
                const AbsVal& out = bpf_class(insn.code) == BPF_LD ? after.a : after.x;
                if (out.is_constant()) {
                    f.const_result = true;
                    f.const_value = out.constant_value();
                }
            }
        }

        // Propagate the guard along the successor edges.  Packet loads
        // extend the proof on their success continuation; everything else
        // passes it through unchanged.
        std::uint64_t out = g;
        if (is_packet_load(insn)) out = std::max(out, proven_on_success(insn, st));
        for (const std::size_t succ : insn_successors(prog, pc))
            data_in[succ] = std::min(data_in[succ], out);
    }
    return table;
}

}  // namespace capbench::bpf::analysis
