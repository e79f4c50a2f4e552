#include "capbench/bpf/jit/jit_program.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "capbench/bpf/jit/assembler.hpp"

namespace capbench::bpf {

namespace jit {

namespace {

// Register assignment for the generated function (SysV arguments land in
// rdi/esi/edx):
//   rdi  packet data base          (argument, untouched)
//   rsi  data_len                  (argument, upper half cleared on entry)
//   r8d  wire_len                  (moved out of edx: div clobbers edx)
//   eax  BPF register A            (32-bit writes keep the upper half zero,
//                                   so rax always holds the zero-extended A)
//   ebx  BPF register X            (callee-saved: pushed in the prologue)
//   r9d  executed-instruction count
//   rsp  scratch words M[0..15] when the program touches them
//   ecx, edx, r10, r11             scratch
constexpr Reg kData = Reg::rdi;
constexpr Reg kLen = Reg::rsi;
constexpr Reg kWire = Reg::r8;
constexpr Reg kA = Reg::rax;
constexpr Reg kX = Reg::rbx;
constexpr Reg kCount = Reg::r9;
constexpr Reg kTmp = Reg::r10;
constexpr Reg kTmp2 = Reg::r11;

constexpr std::int32_t kMaxDisp = 0x7FFFFFFF;
constexpr std::uint32_t kFrameBytes = kMemWords * 4;

struct Emitter {
    Assembler& a;
    Assembler::Label fault;
    std::uint32_t pending = 0;  // executed insns not yet added to r9d

    // Adds the deferred count to r9d.  Called before binding a jump-target
    // label and before any instruction that can fault, branch or return, so
    // r9d holds the exact Vm::run count (the current instruction
    // included) at every fault site, return and control-flow merge.
    void flush() {
        if (pending != 0) {
            a.alu32_ri(AluOp::kAdd, kCount, pending);
            pending = 0;
        }
    }

    // cmp data_len, k + size; jb fault.  Exactly the interpreter's
    // `off + size > size` (B: `off >= size` equals `off + 1 > size`).
    // Returns false when the load faults unconditionally (k + size
    // overflows 32 bits: no packet can satisfy it).
    bool guard_abs(std::uint32_t k, std::uint32_t size) {
        const std::uint64_t bound = static_cast<std::uint64_t>(k) + size;
        if (bound > 0xFFFFFFFFull) {
            a.jmp(fault);
            return false;
        }
        if (bound <= static_cast<std::uint64_t>(kMaxDisp)) {
            a.alu64_ri(AluOp::kCmp, kLen, static_cast<std::int32_t>(bound));
        } else {
            a.mov_ri32(kTmp, static_cast<std::uint32_t>(bound));
            a.alu64_rr(AluOp::kCmp, kLen, kTmp);
        }
        a.jcc(Cond::kB, fault);
        return true;
    }

    // A = packet bytes at absolute offset k, big-endian for W/H; the guard
    // already ran.
    void load_abs(std::uint32_t k, std::uint32_t size) {
        if (k > static_cast<std::uint32_t>(kMaxDisp)) {
            a.mov_ri32(kTmp, k);
            load_at_tmp(size);
            return;
        }
        const auto disp = static_cast<std::int32_t>(k);
        switch (size) {
            case 4:
                a.load32(kA, kData, disp);
                a.bswap32(kA);
                break;
            case 2:
                a.movzx16(kA, kData, disp);
                a.bswap32(kA);
                a.shr32_ri(kA, 16);
                break;
            default:
                a.movzx8(kA, kData, disp);
                break;
        }
    }

    // A = packet bytes at X + k (zero-extended, so it cannot wrap), after
    // the interpreter's check: B faults on off >= size, W/H on
    // off + size > size.
    void load_ind(std::uint32_t k, std::uint32_t size) {
        a.mov_ri32(kTmp, k);
        a.alu64_rr(AluOp::kAdd, kTmp, kX);
        if (size == 1) {
            a.alu64_rr(AluOp::kCmp, kTmp, kLen);
            a.jcc(Cond::kAe, fault);
        } else {
            a.lea64(kTmp2, kTmp, static_cast<std::int32_t>(size));
            a.alu64_rr(AluOp::kCmp, kTmp2, kLen);
            a.jcc(Cond::kA, fault);
        }
        load_at_tmp(size);
    }

    // Loads packet bytes at [data + kTmp] into A, big-endian for W/H.
    void load_at_tmp(std::uint32_t size) {
        switch (size) {
            case 4:
                a.load32_bi(kA, kData, kTmp, 0);
                a.bswap32(kA);
                break;
            case 2:
                a.movzx16_bi(kA, kData, kTmp, 0);
                a.bswap32(kA);
                a.shr32_ri(kA, 16);
                break;
            default:
                a.movzx8_bi(kA, kData, kTmp, 0);
                break;
        }
    }

    // X = 4 * (pkt[k] & 0x0F); the guard already ran.
    void msh_body(std::uint32_t k) {
        if (k <= static_cast<std::uint32_t>(kMaxDisp)) {
            a.movzx8(kX, kData, static_cast<std::int32_t>(k));
        } else {
            a.mov_ri32(kTmp, k);
            a.movzx8_bi(kX, kData, kTmp, 0);
        }
        a.alu32_ri(AluOp::kAnd, kX, 0x0F);
        a.shl32_ri(kX, 2);
    }

    // A = x < 32 ? A shift x : 0, branchless.
    void shift_by_x(bool left) {
        a.mov_rr32(Reg::rcx, kX);
        left ? a.shl32_cl(kA) : a.shr32_cl(kA);
        a.alu32_rr(AluOp::kXor, kTmp, kTmp);
        a.alu32_ri(AluOp::kCmp, kX, 32);
        a.cmov32(Cond::kAe, kA, kTmp);
    }

    // Packs (count << 32) | accept_len — accept_len already in rax with a
    // zero upper half — and returns.
    void pack_and_ret(bool uses_mem) {
        a.mov_rr32(kTmp, kCount);
        a.shl64_ri(kTmp, 32);
        a.alu64_rr(AluOp::kOr, kA, kTmp);
        epilogue(uses_mem);
    }

    void epilogue(bool uses_mem) {
        if (uses_mem) a.alu64_ri(AluOp::kAdd, Reg::rsp, kFrameBytes);
        a.pop64(Reg::rbx);
        a.ret();
    }
};

[[noreturn]] void unlowered(std::size_t pc, const Insn& insn, const char* what) {
    throw std::logic_error("compile_to_bytes: insn " + std::to_string(pc) + " (code " +
                           std::to_string(insn.code) + ", k " + std::to_string(insn.k) +
                           "): " + what);
}

// Packet-load width in bytes: W, H, else B.
std::uint32_t load_size(std::uint16_t code) {
    switch (bpf_size(code)) {
        case BPF_W: return 4;
        case BPF_H: return 2;
        default: return 1;
    }
}

bool touches_scratch(const Program& prog) {
    return std::any_of(prog.begin(), prog.end(), [](const Insn& insn) {
        const std::uint16_t cls = bpf_class(insn.code);
        return cls == BPF_ST || cls == BPF_STX ||
               ((cls == BPF_LD || cls == BPF_LDX) && bpf_mode(insn.code) == BPF_MEM);
    });
}

}  // namespace

std::vector<std::uint8_t> compile_to_bytes(const Program& prog) {
    Assembler a;
    const std::size_t n = prog.size();
    const bool uses_mem = touches_scratch(prog);

    // Jump-target pcs get labels; everything else is straight-line.  A
    // target is pc + 1 + offset, computed in size_t so it cannot wrap.
    std::vector<std::uint8_t> is_target(n, 0);
    const auto mark = [&](std::size_t t) {
        if (t < n) is_target[t] = 1;
    };
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Insn& insn = prog[pc];
        if (bpf_class(insn.code) != BPF_JMP) continue;
        if (bpf_op(insn.code) == BPF_JA) {
            mark(pc + 1 + insn.k);
        } else {
            mark(pc + 1 + insn.jt);
            mark(pc + 1 + insn.jf);
        }
    }
    std::vector<Assembler::Label> at(n);
    for (std::size_t pc = 0; pc < n; ++pc)
        if (is_target[pc]) at[pc] = a.make_label();

    Emitter e{a, a.make_label()};
    // A jump target past the end (hand-built programs only — the verifier
    // pins targets to real instructions) lands on the fault path,
    // mirroring the interpreter's fell-off-the-end rejection.
    const auto target = [&](std::size_t t) { return t < n ? at[t] : e.fault; };

    // Prologue: save X's register, carve the scratch frame, zero the
    // machine state, normalize the 32-bit arguments.
    a.push64(Reg::rbx);
    if (uses_mem) {
        a.alu64_ri(AluOp::kSub, Reg::rsp, static_cast<std::int32_t>(kFrameBytes));
        for (std::uint32_t i = 0; i < kFrameBytes; i += 8)
            a.store64_imm32(Reg::rsp, static_cast<std::int32_t>(i), 0);
    }
    a.alu32_rr(AluOp::kXor, kA, kA);
    a.alu32_rr(AluOp::kXor, kX, kX);
    a.alu32_rr(AluOp::kXor, kCount, kCount);
    a.mov_rr32(kLen, kLen);     // data_len: clear the undefined upper half
    a.mov_rr32(kWire, Reg::rdx);  // wire_len out of div's clobber set

    // Conditional jump on the flags just set: jt/jf are relative, so 0 is
    // the fallthrough.
    const auto cond_jump = [&](Cond cond, const Insn& insn, std::size_t pc) {
        const std::size_t jt = pc + 1 + insn.jt;
        const std::size_t jf = pc + 1 + insn.jf;
        if (insn.jt == insn.jf) {
            if (insn.jt != 0) a.jmp(target(jt));
        } else if (insn.jf == 0) {
            a.jcc(cond, target(jt));
        } else if (insn.jt == 0) {
            a.jcc(negate(cond), target(jf));
        } else {
            a.jcc(cond, target(jt));
            a.jmp(target(jf));
        }
    };

    for (std::size_t pc = 0; pc < n; ++pc) {
        if (is_target[pc]) {
            e.flush();
            a.bind(at[pc]);
        }
        ++e.pending;
        const Insn& insn = prog[pc];
        const std::uint16_t code = insn.code;
        const std::uint32_t k = insn.k;
        const bool use_x = bpf_src(code) == BPF_X;
        const std::uint32_t size = load_size(code);
        const auto mem_slot = [&] {
            if (k >= kMemWords) unlowered(pc, insn, "scratch index out of range");
            return static_cast<std::int32_t>(k * 4);
        };
        // A op= (X or k); also the compare of a conditional jump.
        const auto alu = [&](AluOp op) {
            use_x ? a.alu32_rr(op, kA, kX) : a.alu32_ri(op, kA, k);
        };
        switch (bpf_class(code)) {
            case BPF_LD:
                switch (bpf_mode(code) | bpf_size(code)) {
                    case BPF_IMM | BPF_W: a.mov_ri32(kA, k); break;
                    case BPF_LEN | BPF_W: a.mov_rr32(kA, kWire); break;
                    case BPF_MEM | BPF_W: a.load32(kA, Reg::rsp, mem_slot()); break;
                    case BPF_ABS | BPF_W:
                    case BPF_ABS | BPF_H:
                    case BPF_ABS | BPF_B:
                        e.flush();
                        if (e.guard_abs(k, size)) e.load_abs(k, size);
                        break;
                    case BPF_IND | BPF_W:
                    case BPF_IND | BPF_H:
                    case BPF_IND | BPF_B:
                        e.flush();
                        e.load_ind(k, size);
                        break;
                    default: unlowered(pc, insn, "unknown load");
                }
                break;
            case BPF_LDX:
                switch (bpf_mode(code) | bpf_size(code)) {
                    case BPF_IMM | BPF_W: a.mov_ri32(kX, k); break;
                    case BPF_LEN | BPF_W: a.mov_rr32(kX, kWire); break;
                    case BPF_MEM | BPF_W: a.load32(kX, Reg::rsp, mem_slot()); break;
                    case BPF_MSH | BPF_B:
                        e.flush();
                        if (e.guard_abs(k, 1)) e.msh_body(k);
                        break;
                    default: unlowered(pc, insn, "unknown ldx");
                }
                break;
            case BPF_ST: a.store32(Reg::rsp, mem_slot(), kA); break;
            case BPF_STX: a.store32(Reg::rsp, mem_slot(), kX); break;

            case BPF_ALU:
                switch (bpf_op(code)) {
                    case BPF_ADD: alu(AluOp::kAdd); break;
                    case BPF_SUB: alu(AluOp::kSub); break;
                    case BPF_OR: alu(AluOp::kOr); break;
                    case BPF_AND: alu(AluOp::kAnd); break;
                    case BPF_MUL: use_x ? a.imul32_rr(kA, kX) : a.imul32_rri(kA, kA, k); break;
                    case BPF_DIV:
                        if (use_x) {
                            e.flush();
                            a.test32_rr(kX, kX);
                            a.jcc(Cond::kE, e.fault);
                            a.alu32_rr(AluOp::kXor, Reg::rdx, Reg::rdx);
                            a.div32(kX);
                        } else {
                            if (k == 0) unlowered(pc, insn, "constant division by zero");
                            a.mov_ri32(Reg::rcx, k);
                            a.alu32_rr(AluOp::kXor, Reg::rdx, Reg::rdx);
                            a.div32(Reg::rcx);
                        }
                        break;
                    case BPF_LSH:
                    case BPF_RSH: {
                        const bool left = bpf_op(code) == BPF_LSH;
                        if (use_x) {
                            e.shift_by_x(left);
                        } else if (k >= 32) {
                            a.mov_ri32(kA, 0);  // a constant over-shift always yields 0
                        } else {
                            const auto bits = static_cast<std::uint8_t>(k);
                            left ? a.shl32_ri(kA, bits) : a.shr32_ri(kA, bits);
                        }
                        break;
                    }
                    case BPF_NEG: a.neg32(kA); break;
                    default: unlowered(pc, insn, "unknown alu op");
                }
                break;

            case BPF_JMP: {
                e.flush();
                if (bpf_op(code) == BPF_JA) {
                    if (k != 0) a.jmp(target(pc + 1 + k));
                    break;
                }
                Cond cond = Cond::kNe;  // JSET: A & operand != 0
                switch (bpf_op(code)) {
                    case BPF_JEQ: cond = Cond::kE; break;
                    case BPF_JGT: cond = Cond::kA; break;
                    case BPF_JGE: cond = Cond::kAe; break;
                    case BPF_JSET: break;
                    default: unlowered(pc, insn, "unknown jump op");
                }
                if (bpf_op(code) == BPF_JSET)
                    use_x ? a.test32_rr(kA, kX) : a.test32_ri(kA, k);
                else
                    alu(AluOp::kCmp);
                cond_jump(cond, insn, pc);
                break;
            }

            case BPF_RET:
                e.flush();
                switch (bpf_rval(code)) {
                    case BPF_K: a.mov_ri32(kA, k); break;
                    case BPF_A: break;
                    default: unlowered(pc, insn, "unknown ret source");
                }
                e.pack_and_ret(uses_mem);
                break;

            default:  // BPF_MISC
                switch (bpf_miscop(code)) {
                    case BPF_TAX: a.mov_rr32(kX, kA); break;
                    case BPF_TXA: a.mov_rr32(kA, kX); break;
                    default: unlowered(pc, insn, "unknown misc op");
                }
                break;
        }
    }

    // Fell off the end without RET (empty or hand-built programs; the
    // verifier forbids it): reject like the interpreter.
    e.flush();
    a.jmp(e.fault);

    // Shared fault exit: r9d is exact at every jump here.
    a.bind(e.fault);
    e.flush();
    a.mov_rr32(kTmp, kCount);
    a.shl64_ri(kTmp, 32);
    a.mov_ri64(kA, std::uint64_t{1} << 48);  // aborted flag, accept_len 0
    a.alu64_rr(AluOp::kOr, kA, kTmp);
    e.epilogue(uses_mem);

    return a.finish();
}

}  // namespace jit

std::shared_ptr<const JitProgram> JitProgram::compile(const Program& prog) {
    if (!supported())
        throw std::runtime_error("JitProgram: native tier unsupported on this build");
    jit::ExecMemory mem(jit::compile_to_bytes(prog));
    return std::shared_ptr<const JitProgram>(new JitProgram(std::move(mem)));
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
