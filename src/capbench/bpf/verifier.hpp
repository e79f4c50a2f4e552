// The attach-time BPF verifier.
//
// Composes the exact-opcode validator with the analysis pipeline — CFG,
// dominator tree, liveness, abstract interpretation, guard analysis — into
// one verdict: severity-ranked findings plus the per-instruction FactTable
// the execution tiers consume.  Error findings are what a kernel would
// refuse to attach (malformed opcodes, wild jumps, fallthrough past the
// end, no reachable return); warnings are legal-but-wrong programs;
// info findings carry proven facts (return ranges, elidable checks, dead
// stores).
//
// `verify_or_throw` is the gate every capture stack attaches through
// (capture::FilterRunner::install): a rejected program never reaches the
// packet path, which is what lets the native tier drop its per-packet
// checks.
#pragma once

#include <string>
#include <vector>

#include "capbench/bpf/analysis/fact_table.hpp"
#include "capbench/bpf/analysis/findings.hpp"
#include "capbench/bpf/insn.hpp"

namespace capbench::bpf {

struct VerifyResult {
    /// Severity-ranked: every error first, then warnings, then infos;
    /// instruction order within each rank.
    std::vector<analysis::Finding> findings;
    /// Empty for programs that fail validation (no analysis ran).
    analysis::FactTable facts;

    [[nodiscard]] bool ok() const;
    /// The highest-ranked error finding; nullptr when ok().
    [[nodiscard]] const analysis::Finding* first_error() const;
};

VerifyResult verify(const Program& prog);

/// Throws std::invalid_argument carrying the first structured finding
/// ("BPF verifier rejected filter: insn 3: error: ...") when the program
/// produces any error finding.
void verify_or_throw(const Program& prog);

}  // namespace capbench::bpf
