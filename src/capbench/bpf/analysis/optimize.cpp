#include "capbench/bpf/analysis/optimize.hpp"

#include <cstdint>
#include <vector>

#include "capbench/bpf/analysis/interp.hpp"
#include "capbench/bpf/analysis/liveness.hpp"
#include "capbench/bpf/validator.hpp"

namespace capbench::bpf::analysis {

namespace {

// Liveness (live-out masks, static dead-store flags, insn_uses/insn_defs)
// comes from the shared analysis module — the same computation behind
// verify()'s dead-store findings.  Only live-in is derived here,
// because edge retargeting is the one consumer that needs it:
// in[i] = uses(i) | (out[i] & ~defs(i)).

using LiveSet = std::uint32_t;

std::vector<LiveSet> live_in_of(const Program& prog, const Liveness& lv) {
    std::vector<LiveSet> in(prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i)
        in[i] = insn_uses(prog[i]) | (lv.live_out[i] & ~insn_defs(prog[i]));
    return in;
}

// ---------------------------------------------------------------------------
// Pass 1: local rewrites from the joined in-state of each instruction.

bool rewrite(Program& prog, const InterpResult& ir) {
    bool changed = false;
    const std::size_t n = prog.size();
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (!ir.in[pc]) continue;
        const AbsState& st = *ir.in[pc];
        Insn& insn = prog[pc];
        const std::uint16_t code = insn.code;
        switch (bpf_class(code)) {
            case BPF_JMP: {
                if (bpf_op(code) == BPF_JA) {
                    // Jump straight to a RET: hoist the RET over the jump.
                    const std::size_t t = pc + 1 + insn.k;
                    if (t < n && bpf_class(prog[t].code) == BPF_RET) {
                        insn = prog[t];
                        changed = true;
                    }
                    break;
                }
                if (insn.jt == insn.jf) {  // degenerate conditional
                    insn = stmt(BPF_JMP | BPF_JA, insn.jt);
                    changed = true;
                    break;
                }
                auto outcome = cond_outcome(insn, st);
                if (!outcome) {
                    // compare() may be undecided while one edge is still
                    // infeasible (e.g. contradictory known bits).
                    if (!refine_edge(insn, st, true))
                        outcome = false;
                    else if (!refine_edge(insn, st, false))
                        outcome = true;
                }
                if (outcome) {
                    insn = stmt(BPF_JMP | BPF_JA, *outcome ? insn.jt : insn.jf);
                    changed = true;
                }
                break;
            }
            case BPF_RET:
                if (bpf_rval(code) == BPF_A && st.a.is_constant()) {
                    insn = stmt(BPF_RET | BPF_K, st.a.constant_value());
                    changed = true;
                }
                break;
            case BPF_ALU: {
                const bool use_x = bpf_src(code) == BPF_X && bpf_op(code) != BPF_NEG;
                if (bpf_op(code) == BPF_DIV && use_x && st.x.contains(0))
                    break;  // the rejection on X == 0 must stay
                AbsState probe = st;
                if (!apply(insn, probe)) break;  // always rejects: leave it
                if (probe.a.is_constant()) {
                    insn = stmt(BPF_LD | BPF_IMM, probe.a.constant_value());
                    changed = true;
                } else if (bpf_op(code) == BPF_DIV && use_x && st.x.is_constant()) {
                    insn = stmt(BPF_ALU | BPF_DIV | BPF_K, st.x.constant_value());
                    changed = true;
                }
                break;
            }
            case BPF_LD:
            case BPF_LDX: {
                if (bpf_mode(code) == BPF_IMM) break;
                if (!load_known_safe(insn, st)) break;
                AbsState probe = st;
                if (!apply(insn, probe)) break;
                const AbsVal& result = bpf_class(code) == BPF_LD ? probe.a : probe.x;
                if (result.is_constant()) {
                    insn = bpf_class(code) == BPF_LD
                               ? stmt(BPF_LD | BPF_IMM, result.constant_value())
                               : stmt(BPF_LDX | BPF_W | BPF_IMM, result.constant_value());
                    changed = true;
                }
                break;
            }
            default:
                break;
        }
    }
    return changed;
}

// ---------------------------------------------------------------------------
// Pass 2: edge retargeting.  From a jump edge's refined state, walk forward
// skipping instructions that are redundant or decided along this particular
// path, and point the edge at the first instruction that still matters.

/// Walks from `start` with the edge's abstract state.  `opt_*` hold the
/// register contents the retargeted machine actually has (frozen at the
/// edge); `orig` evolves as the original machine would.  A skipped load
/// whose value differs from the frozen contents makes that register
/// "pending": the walk may only land where the pending register is dead.
std::size_t walk_edge(const Program& prog, const AbsState& edge_state, std::size_t start,
                      const std::vector<LiveSet>& live_in, std::size_t max_dest) {
    const std::size_t n = prog.size();
    AbsState orig = edge_state;
    const AbsVal opt_a = edge_state.a;
    const AbsVal opt_x = edge_state.x;
    const Sym opt_a_sym = edge_state.a_sym;
    const Sym opt_x_sym = edge_state.x_sym;
    bool pending_a = false;
    bool pending_x = false;

    std::size_t cur = start;
    std::size_t best = start;
    for (int steps = 0; steps < 512; ++steps) {
        if (cur >= n) return best;
        const LiveSet pending =
            (pending_a ? kLiveA : 0u) | (pending_x ? kLiveX : 0u);
        if (cur > max_dest) return best;  // forward walk: no candidates left
        if ((pending & live_in[cur]) == 0) best = cur;

        const Insn& insn = prog[cur];
        const std::uint16_t code = insn.code;
        switch (bpf_class(code)) {
            case BPF_RET:
                return best;
            case BPF_JMP: {
                if (bpf_op(code) == BPF_JA) {
                    cur = cur + 1 + insn.k;
                    break;
                }
                const auto outcome = cond_outcome(insn, orig);
                if (!outcome) return best;
                auto next = refine_edge(insn, orig, *outcome);
                if (!next) return best;
                orig = std::move(*next);
                cur = cur + 1 + (*outcome ? insn.jt : insn.jf);
                break;
            }
            case BPF_LD:
            case BPF_LDX: {
                // Skippable only if it provably cannot reject at runtime.
                if (!load_known_safe(insn, orig)) return best;
                const Sym sym = load_sym(insn, orig);
                if (!apply(insn, orig)) return best;
                if (bpf_class(code) == BPF_LD) {
                    const bool same =
                        (sym.valid() && opt_a_sym == sym) ||
                        (orig.a.is_constant() && opt_a.is_constant() &&
                         orig.a.constant_value() == opt_a.constant_value());
                    pending_a = !same;
                } else {
                    const bool same =
                        (sym.valid() && opt_x_sym == sym) ||
                        (orig.x.is_constant() && opt_x.is_constant() &&
                         orig.x.constant_value() == opt_x.constant_value());
                    pending_x = !same;
                }
                break;
            }
            default:
                // Stores, ALU, MISC: stop — tracking their pending effects
                // through scratch memory is not worth the complexity.
                return best;
        }
        if (bpf_class(code) == BPF_LD || bpf_class(code) == BPF_LDX) ++cur;
    }
    return best;
}

bool edge_skip(Program& prog, const InterpResult& ir,
               const std::vector<LiveSet>& live_in) {
    bool changed = false;
    const std::size_t n = prog.size();
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (!ir.in[pc]) continue;
        Insn& insn = prog[pc];
        if (bpf_class(insn.code) != BPF_JMP) continue;
        if (bpf_op(insn.code) == BPF_JA) {
            const std::size_t target = pc + 1 + insn.k;
            if (target >= n) continue;
            const std::size_t dest =
                walk_edge(prog, *ir.in[pc], target, live_in, n - 1);
            if (dest != target) {
                insn.k = static_cast<std::uint32_t>(dest - pc - 1);
                changed = true;
            }
            continue;
        }
        for (const bool taken : {true, false}) {
            const std::uint8_t off = taken ? insn.jt : insn.jf;
            const std::size_t target = pc + 1 + off;
            if (target >= n) continue;
            const auto edge = refine_edge(insn, *ir.in[pc], taken);
            if (!edge) continue;  // infeasible edge; rewrite() folds it
            const std::size_t max_dest = pc + 1 + 255;  // jt/jf are 8-bit
            const std::size_t dest = walk_edge(prog, *edge, target, live_in, max_dest);
            if (dest != target) {
                const auto new_off = static_cast<std::uint8_t>(dest - pc - 1);
                if (taken)
                    insn.jt = new_off;
                else
                    insn.jf = new_off;
                changed = true;
            }
        }
    }
    return changed;
}

// ---------------------------------------------------------------------------
// Pass 3: instruction removal + jump remapping.

/// True when executing `insn` in state `st` cannot reject the packet.
bool never_rejects(const Insn& insn, const AbsState& st) {
    const std::uint16_t code = insn.code;
    switch (bpf_class(code)) {
        case BPF_LD:
        case BPF_LDX:
            return load_known_safe(insn, st);
        case BPF_ST:
        case BPF_STX:
            return insn.k < kMemWords;
        case BPF_ALU:
            if (bpf_op(code) != BPF_DIV) return true;
            if (bpf_src(code) == BPF_K) return insn.k != 0;
            return !st.x.contains(0);
        case BPF_MISC:
            return true;
        default:
            return false;
    }
}

/// A load whose destination register already holds exactly the loaded value.
bool redundant_load(const Insn& insn, const AbsState& st) {
    const std::uint16_t code = insn.code;
    if (bpf_class(code) != BPF_LD && bpf_class(code) != BPF_LDX) return false;
    const bool to_a = bpf_class(code) == BPF_LD;
    const AbsVal& reg = to_a ? st.a : st.x;
    const Sym& reg_sym = to_a ? st.a_sym : st.x_sym;
    if (bpf_mode(code) == BPF_IMM)
        return reg.is_constant() && reg.constant_value() == insn.k;
    if (!load_known_safe(insn, st)) return false;
    const Sym sym = load_sym(insn, st);
    if (sym.valid() && sym == reg_sym) return true;
    if (bpf_mode(code) == BPF_MEM && insn.k < kMemWords) {
        const AbsVal& slot = st.mem[insn.k];
        return slot.is_constant() && reg.is_constant() &&
               slot.constant_value() == reg.constant_value();
    }
    return false;
}

/// Removal runs in two flavours that must not be mixed within one sweep:
/// redundant-load removal is justified by the defining instruction staying,
/// while dead-def removal is justified by the redefining instruction
/// staying.  Marking both in the same sweep lets each justify the other
/// and deletes a live value (e.g. back-to-back `ld len`: the first is a
/// dead def because of the second, the second redundant because of the
/// first).  The optimize() fixpoint loop tries kRedundant first, then
/// kDeadDefs with freshly recomputed liveness.
enum class RemovalKind { kRedundant, kDeadDefs };

bool removal(Program& prog, const InterpResult& ir, const Liveness& lv,
             RemovalKind kind) {
    const std::size_t n = prog.size();
    std::vector<bool> keep(n, true);
    bool changed = false;
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Insn& insn = prog[pc];
        if (!ir.in[pc]) {
            keep[pc] = false;  // unreachable
        } else if (bpf_class(insn.code) == BPF_JMP && bpf_op(insn.code) == BPF_JA &&
                   insn.k == 0) {
            keep[pc] = false;  // no-op jump
        } else if (kind == RemovalKind::kRedundant) {
            if (redundant_load(insn, *ir.in[pc])) keep[pc] = false;
        } else {
            // Two dead-def justifications, OR'd: the shared static flag
            // (never-rejecting by instruction shape alone), and the
            // state-based one, which additionally proves packet loads and
            // divisions safe from the abstract in-state.
            const LiveSet defs = insn_defs(insn);
            const bool is_def = bpf_class(insn.code) != BPF_JMP &&
                                bpf_class(insn.code) != BPF_RET && defs != 0;
            if (lv.dead_store[pc] ||
                (is_def && (defs & lv.live_out[pc]) == 0 &&
                 never_rejects(insn, *ir.in[pc])))
                keep[pc] = false;  // dead store/def
        }
        changed = changed || !keep[pc];
    }
    if (!changed) return false;

    // Remap: removed instructions become pass-throughs; jumps redirect to
    // the next kept instruction at or after their old target.  All offsets
    // shrink, so 8-bit conditional offsets stay representable.
    std::vector<std::size_t> new_index(n + 1, 0);
    std::size_t count = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
        new_index[pc] = count;
        if (keep[pc]) ++count;
    }
    new_index[n] = count;
    const auto redirect = [&](std::size_t target) {
        while (target < n && !keep[target]) ++target;
        return target;
    };

    Program out;
    out.reserve(count);
    for (std::size_t pc = 0; pc < n; ++pc) {
        if (!keep[pc]) continue;
        Insn insn = prog[pc];
        if (bpf_class(insn.code) == BPF_JMP) {
            if (bpf_op(insn.code) == BPF_JA) {
                const std::size_t t = redirect(pc + 1 + insn.k);
                insn.k = static_cast<std::uint32_t>(new_index[t] - new_index[pc] - 1);
            } else {
                const std::size_t tt = redirect(pc + 1 + insn.jt);
                const std::size_t tf = redirect(pc + 1 + insn.jf);
                insn.jt = static_cast<std::uint8_t>(new_index[tt] - new_index[pc] - 1);
                insn.jf = static_cast<std::uint8_t>(new_index[tf] - new_index[pc] - 1);
            }
        }
        out.push_back(insn);
    }
    prog = std::move(out);
    return true;
}

}  // namespace

Program optimize(const Program& prog, OptimizeStats* stats) {
    if (stats) {
        *stats = OptimizeStats{};
        stats->insns_before = prog.size();
        stats->insns_after = prog.size();
    }
    if (validate(prog)) return prog;  // invalid: not ours to transform

    Program work = prog;
    constexpr int kMaxRounds = 64;
    int rounds = 0;
    while (rounds < kMaxRounds) {
        const InterpResult ir = interpret(work);
        if (rewrite(work, ir)) {
            ++rounds;
            continue;
        }
        const Liveness lv = Liveness::build(work);
        if (edge_skip(work, ir, live_in_of(work, lv))) {
            ++rounds;
            continue;
        }
        if (removal(work, ir, lv, RemovalKind::kRedundant)) {
            ++rounds;
            continue;
        }
        if (removal(work, ir, lv, RemovalKind::kDeadDefs)) {
            ++rounds;
            continue;
        }
        break;
    }
    if (validate(work)) return prog;  // safety net: never ship a broken rewrite
    if (stats) {
        stats->rounds = rounds;
        stats->insns_after = work.size();
    }
    return work;
}

}  // namespace capbench::bpf::analysis
