// Diagnostics emitted by the BPF verifier (Section 6.6 tooling).
//
// A Finding anchors a message to one instruction.  kError findings are what
// verify() refuses to attach; kWarning findings are legal-but-wrong
// programs (unreachable code, uninitialized reads, filters that can never
// accept); kInfo findings are derived facts (return-value ranges).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace capbench::bpf::analysis {

enum class Severity { kError, kWarning, kInfo };

struct Finding {
    Severity severity = Severity::kWarning;
    std::size_t insn = 0;  // instruction index the finding anchors to
    std::string message;

    friend bool operator==(const Finding&, const Finding&) = default;
};

std::string to_string(Severity severity);

/// "insn 12: warning: unreachable instruction"
std::string to_string(const Finding& finding);

}  // namespace capbench::bpf::analysis
