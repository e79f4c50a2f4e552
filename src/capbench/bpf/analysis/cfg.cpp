#include "capbench/bpf/analysis/cfg.hpp"

namespace capbench::bpf::analysis {

std::vector<std::size_t> insn_successors(const Program& prog, std::size_t pc) {
    std::vector<std::size_t> out;
    if (pc >= prog.size()) return out;
    const Insn& insn = prog[pc];
    const auto push = [&](std::size_t target) {
        if (target < prog.size()) out.push_back(target);
    };
    if (bpf_class(insn.code) == BPF_RET) return out;
    if (bpf_class(insn.code) == BPF_JMP) {
        if (bpf_op(insn.code) == BPF_JA) {
            push(pc + 1 + insn.k);
        } else {
            push(pc + 1 + insn.jt);
            if (insn.jf != insn.jt) push(pc + 1 + insn.jf);
        }
        return out;
    }
    push(pc + 1);
    return out;
}

Cfg Cfg::build(const Program& prog) {
    Cfg cfg;
    const std::size_t n = prog.size();
    cfg.reachable.assign(n, false);
    if (n == 0) return cfg;

    // Instruction-level reachability (forward jumps: a simple sweep works,
    // but a worklist is just as short and independent of that property).
    std::vector<std::size_t> work{0};
    while (!work.empty()) {
        const std::size_t pc = work.back();
        work.pop_back();
        if (pc >= n || cfg.reachable[pc]) continue;
        cfg.reachable[pc] = true;
        for (const std::size_t succ : insn_successors(prog, pc)) work.push_back(succ);
    }
    return cfg;
}

}  // namespace capbench::bpf::analysis
