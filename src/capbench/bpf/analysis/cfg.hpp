// Control-flow graph over a classic BPF program.
//
// Classic BPF only has forward jumps, so the CFG is a DAG in instruction
// order: reachability and dataflow both converge in a single forward pass.
// Edges follow the jt/jf/ja targets computed the same way the VM computes
// them (pc + 1 + offset).
#pragma once

#include <cstddef>
#include <vector>

#include "capbench/bpf/insn.hpp"

namespace capbench::bpf::analysis {

/// Successor instruction indices of `pc` (targets clamped out of existence
/// when they fall outside the program; validate() forbids that anyway).
std::vector<std::size_t> insn_successors(const Program& prog, std::size_t pc);

struct Cfg {
    /// Per-instruction reachability from the entry point.
    std::vector<bool> reachable;

    static Cfg build(const Program& prog);
};

}  // namespace capbench::bpf::analysis
