#include "capbench/bpf/verifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "capbench/bpf/analysis/cfg.hpp"
#include "capbench/bpf/analysis/interp.hpp"
#include "capbench/bpf/validator.hpp"

namespace capbench::bpf {

using analysis::Finding;
using analysis::Severity;

bool VerifyResult::ok() const { return first_error() == nullptr; }

const Finding* VerifyResult::first_error() const {
    // Findings are severity-ranked, so an error — if any — leads.
    if (!findings.empty() && findings.front().severity == Severity::kError)
        return &findings.front();
    return nullptr;
}

VerifyResult verify(const Program& prog) {
    VerifyResult res;
    if (const auto reason = validate(prog)) {
        res.findings.push_back(Finding{Severity::kError, 0, *reason});
        return res;
    }

    // One run of each pass; the fact table shares them.
    const analysis::Cfg cfg = analysis::Cfg::build(prog);
    const analysis::Liveness live = analysis::Liveness::build(prog);
    const analysis::InterpResult interp = analysis::interpret(prog);
    res.facts = analysis::FactTable::build(prog, cfg, live, interp);

    std::vector<Finding>& findings = res.findings;
    findings = interp.findings;

    // Structural checks, independent of the validator's syntactic ones:
    // every reachable path must end in a RET.  These are the only errors
    // past validate(); the abstract interpreter's verdicts stay warnings,
    // since a filter that faults on every path is legal and rejects all.
    bool reachable_ret = false;
    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
        if (!cfg.reachable[pc]) {
            findings.push_back(Finding{Severity::kWarning, pc, "unreachable instruction"});
            continue;
        }
        if (bpf_class(prog[pc].code) == BPF_RET)
            reachable_ret = true;
        else if (analysis::insn_successors(prog, pc).empty())
            findings.push_back(Finding{Severity::kError, pc,
                                       "falls through the end of the program"});
    }
    if (!reachable_ret)
        findings.push_back(
            Finding{Severity::kError, 0, "no reachable return instruction"});
    else if (!interp.has_reachable_ret)
        findings.push_back(Finding{Severity::kWarning, 0,
                                   "every path faults; the filter rejects every packet"});

    // Per-path precondition facts and value proofs (info rank).
    std::optional<std::size_t> first_ret;
    std::uint32_t packet_loads = 0;
    std::uint32_t safe_loads = 0;
    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
        const analysis::InsnFacts& f = res.facts[pc];
        if (!f.reachable) continue;
        const std::uint16_t code = prog[pc].code;
        const std::uint16_t mode = bpf_mode(code);
        const bool packet_load =
            (bpf_class(code) == BPF_LD && (mode == BPF_ABS || mode == BPF_IND)) ||
            (bpf_class(code) == BPF_LDX && mode == BPF_MSH);
        if (packet_load) {
            ++packet_loads;
            if (f.safe_load) {
                ++safe_loads;
                findings.push_back(Finding{
                    Severity::kInfo, pc,
                    f.redundant_load
                        ? "bounds check elidable: an identical load already succeeded "
                          "on every path"
                        : "bounds check elidable: dominating loads prove at least " +
                              std::to_string(f.min_data_len) + " packet bytes"});
            }
        }
        if (f.dead_store)
            findings.push_back(Finding{Severity::kInfo, pc,
                                       "dead store: the written value is never read"});
        if (bpf_class(code) == BPF_RET) {
            if (!first_ret) first_ret = pc;
            if (bpf_rval(code) == BPF_A && interp.in[pc]) {
                const analysis::AbsVal& a = interp.in[pc]->a;
                findings.push_back(Finding{
                    Severity::kInfo, pc,
                    a.is_constant()
                        ? "returns the constant " + std::to_string(a.constant_value())
                        : "returns A in [" + std::to_string(a.lo) + ", " +
                              std::to_string(a.hi) + "]"});
            }
        }
    }
    if (interp.never_accepts && first_ret)
        findings.push_back(Finding{Severity::kWarning, *first_ret,
                                   "filter can never accept a packet (every reachable "
                                   "return path yields 0)"});
    if (packet_loads > 0)
        findings.push_back(Finding{
            Severity::kInfo, 0,
            "fact table: " + std::to_string(safe_loads) + " of " +
                std::to_string(packet_loads) + " packet loads proven in bounds"});

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                         if (a.severity != b.severity)
                             return static_cast<int>(a.severity) <
                                    static_cast<int>(b.severity);
                         return a.insn < b.insn;
                     });
    return res;
}

void verify_or_throw(const Program& prog) {
    const VerifyResult res = verify(prog);
    if (const Finding* err = res.first_error())
        throw std::invalid_argument("BPF verifier rejected filter: " +
                                    analysis::to_string(*err));
}

}  // namespace capbench::bpf
