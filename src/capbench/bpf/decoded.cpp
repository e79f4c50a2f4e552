#include "capbench/bpf/decoded.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace capbench::bpf {

namespace {

Tok abs_tok(std::uint16_t code) {
    switch (bpf_size(code)) {
        case BPF_W: return Tok::kLdAbsW;
        case BPF_H: return Tok::kLdAbsH;
        default: return Tok::kLdAbsB;
    }
}

Tok ind_tok(std::uint16_t code) {
    switch (bpf_size(code)) {
        case BPF_W: return Tok::kLdIndW;
        case BPF_H: return Tok::kLdIndH;
        default: return Tok::kLdIndB;
    }
}

Tok alu_tok(std::uint16_t code) {
    const bool use_x = bpf_src(code) == BPF_X;
    switch (bpf_op(code)) {
        case BPF_ADD: return use_x ? Tok::kAddX : Tok::kAddK;
        case BPF_SUB: return use_x ? Tok::kSubX : Tok::kSubK;
        case BPF_MUL: return use_x ? Tok::kMulX : Tok::kMulK;
        case BPF_DIV: return use_x ? Tok::kDivX : Tok::kDivK;
        case BPF_OR: return use_x ? Tok::kOrX : Tok::kOrK;
        case BPF_AND: return use_x ? Tok::kAndX : Tok::kAndK;
        case BPF_LSH: return use_x ? Tok::kLshX : Tok::kLshK;
        case BPF_RSH: return use_x ? Tok::kRshX : Tok::kRshK;
        default: return Tok::kNeg;
    }
}

Tok jmp_tok(std::uint16_t code) {
    const bool use_x = bpf_src(code) == BPF_X;
    switch (bpf_op(code)) {
        case BPF_JEQ: return use_x ? Tok::kJeqX : Tok::kJeqK;
        case BPF_JGT: return use_x ? Tok::kJgtX : Tok::kJgtK;
        case BPF_JGE: return use_x ? Tok::kJgeX : Tok::kJgeK;
        default: return use_x ? Tok::kJsetX : Tok::kJsetK;
    }
}

}  // namespace

DecodedProgram decode(const Program& prog) {
    DecodedProgram out;
    out.insns.resize(prog.size());
    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
        const Insn& insn = prog[pc];
        const std::uint16_t code = insn.code;
        DecodedInsn& d = out.insns[pc];
        d.k = insn.k;
        switch (bpf_class(code)) {
            case BPF_LD:
                switch (bpf_mode(code)) {
                    case BPF_IMM: d.tok = Tok::kLdImm; break;
                    case BPF_LEN: d.tok = Tok::kLdLen; break;
                    case BPF_MEM: d.tok = Tok::kLdMem; break;
                    case BPF_ABS: d.tok = abs_tok(code); break;
                    case BPF_IND: d.tok = ind_tok(code); break;
                    default: break;
                }
                break;
            case BPF_LDX:
                switch (bpf_mode(code)) {
                    case BPF_IMM: d.tok = Tok::kLdxImm; break;
                    case BPF_LEN: d.tok = Tok::kLdxLen; break;
                    case BPF_MEM: d.tok = Tok::kLdxMem; break;
                    case BPF_MSH: d.tok = Tok::kLdxMsh; break;
                    default: break;
                }
                break;
            case BPF_ST: d.tok = Tok::kSt; break;
            case BPF_STX: d.tok = Tok::kStx; break;
            case BPF_ALU:
                // A constant over-shift always yields 0; decode it as the
                // immediate so kLshK/kRshK never need the < 32 branch.
                if ((bpf_op(code) == BPF_LSH || bpf_op(code) == BPF_RSH) &&
                    bpf_src(code) == BPF_K && insn.k >= 32) {
                    d.tok = Tok::kLdImm;
                    d.k = 0;
                } else {
                    d.tok = alu_tok(code);
                }
                break;
            case BPF_JMP:
                if (bpf_op(code) == BPF_JA) {
                    d.tok = Tok::kJa;
                    d.jt = static_cast<std::uint32_t>(pc + 1 + insn.k);
                } else {
                    d.tok = jmp_tok(code);
                    d.jt = static_cast<std::uint32_t>(pc + 1 + insn.jt);
                    d.jf = static_cast<std::uint32_t>(pc + 1 + insn.jf);
                }
                break;
            case BPF_RET:
                d.tok = bpf_rval(code) == BPF_A ? Tok::kRetA : Tok::kRetK;
                break;
            default:  // BPF_MISC
                d.tok = bpf_miscop(code) == BPF_TAX ? Tok::kTax : Tok::kTxa;
                break;
        }
    }
    return out;
}

ExecTier parse_exec_tier(const std::string& value) {
    if (value == "interpreter") return ExecTier::kInterpreter;
    if (value == "jit") return ExecTier::kJit;
    throw std::runtime_error("CAPBENCH_BPF_TIER: expected 'interpreter' or 'jit', got '" +
                             value + "'");
}

ExecTier exec_tier() {
    static const ExecTier tier = [] {
        const char* env = std::getenv("CAPBENCH_BPF_TIER");
        return env == nullptr ? ExecTier::kJit : parse_exec_tier(env);
    }();
    return tier;
}

}  // namespace capbench::bpf
