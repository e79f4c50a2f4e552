// The attach-time BPF verifier, and the only entry point to the analysis
// pipeline.
//
// Composes the exact-opcode validator with the analysis passes — CFG
// reachability, liveness, abstract interpretation — into one verdict:
// severity-ranked findings.  Error findings are what a kernel would
// refuse to attach: validate()'s syntactic rejections (malformed opcodes,
// wild jumps) and two structural ones over the CFG (a reachable
// instruction that falls through the end, no reachable return).  Warnings
// are legal-but-wrong programs, including filters that fault on every
// path; info findings carry proven facts (return ranges, dead stores).
//
// `verify_or_throw` is the gate every capture stack attaches through
// (capture::FilterRunner::install): a rejected program never reaches the
// packet path, which is what lets the native tier trust its structure
// (in-range jumps, scratch slots and constant divisors, a reachable
// return).  Packet loads stay bounds-checked on both tiers.
#pragma once

#include <string>
#include <vector>

#include "capbench/bpf/analysis/findings.hpp"
#include "capbench/bpf/insn.hpp"

namespace capbench::bpf {

struct VerifyResult {
    /// Severity-ranked: every error first, then warnings, then infos;
    /// instruction order within each rank.
    std::vector<analysis::Finding> findings;

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
