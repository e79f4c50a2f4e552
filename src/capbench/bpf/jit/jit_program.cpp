#include "capbench/bpf/jit/jit_program.hpp"

#include <cstdint>
#include <stdexcept>

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

    // Loads packet bytes at absolute offset k into `dst`, big-endian for
    // W/H.  `size` selects the width.
    void load_abs(Reg dst, std::uint32_t k, std::uint32_t size) {
        const bool direct = k <= static_cast<std::uint32_t>(kMaxDisp);
        if (!direct) a.mov_ri32(kTmp, k);
        const auto disp = static_cast<std::int32_t>(direct ? k : 0);
        switch (size) {
            case 4:
                if (direct)
                    a.load32(dst, kData, disp);
                else
                    a.load32_bi(dst, kData, kTmp, 0);
                a.bswap32(dst);
                break;
            case 2:
                if (direct)
                    a.movzx16(dst, kData, disp);
                else
                    a.movzx16_bi(dst, kData, kTmp, 0);
                a.bswap32(dst);
                a.shr32_ri(dst, 16);
                break;
            default:
                if (direct)
                    a.movzx8(dst, kData, disp);
                else
                    a.movzx8_bi(dst, kData, kTmp, 0);
                break;
        }
    }

    // kTmp = zero-extended X + k (cannot wrap: both fit 32 bits).
    void ind_offset(std::uint32_t k) {
        a.mov_ri32(kTmp, k);
        a.alu64_rr(AluOp::kAdd, kTmp, kX);
    }

    // Bounds check for an indirect load with the offset already in kTmp.
    void guard_ind(std::uint32_t size) {
        if (size == 1) {
            a.alu64_rr(AluOp::kCmp, kTmp, kLen);
            a.jcc(Cond::kAe, fault);  // off >= size
        } else {
            a.lea64(kTmp2, kTmp, static_cast<std::int32_t>(size));
            a.alu64_rr(AluOp::kCmp, kTmp2, kLen);
            a.jcc(Cond::kA, fault);  // off + size > size
        }
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

bool touches_scratch(const DecodedProgram& prog) {
    for (const DecodedInsn& di : prog.insns) {
        switch (di.tok) {
            case Tok::kLdMem:
            case Tok::kLdxMem:
            case Tok::kSt:
            case Tok::kStx:
                return true;
            default:
                break;
        }
    }
    return false;
}

}  // namespace

std::vector<std::uint8_t> compile_to_bytes(const DecodedProgram& prog) {
    Assembler a;
    const std::size_t n = prog.insns.size();
    const bool uses_mem = touches_scratch(prog);

    // Jump-target pcs get labels; everything else is straight-line.
    std::vector<std::uint8_t> is_target(n, 0);
    for (const DecodedInsn& di : prog.insns) {
        switch (di.tok) {
            case Tok::kJa:
                if (di.jt < n) is_target[di.jt] = 1;
                break;
            case Tok::kJeqK: case Tok::kJgtK: case Tok::kJgeK: case Tok::kJsetK:
            case Tok::kJeqX: case Tok::kJgtX: case Tok::kJgeX: case Tok::kJsetX:
                if (di.jt < n) is_target[di.jt] = 1;
                if (di.jf < n) is_target[di.jf] = 1;
                break;
            default:
                break;
        }
    }
    std::vector<Assembler::Label> at(n);
    for (std::size_t pc = 0; pc < n; ++pc)
        if (is_target[pc]) at[pc] = a.make_label();

    Emitter e{a, a.make_label()};
    // A decoded jump target past the end (hand-built programs only — the
    // verifier pins targets to real instructions) lands on the fault path,
    // mirroring the interpreter's fell-off-the-end rejection.
    const auto target = [&](std::uint32_t t) { return t < n ? at[t] : e.fault; };

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

    const auto cond_jump = [&](Cond cond, const DecodedInsn& di, std::size_t pc) {
        const auto next = static_cast<std::uint32_t>(pc + 1);
        if (di.jt == di.jf) {
            if (di.jt != next) a.jmp(target(di.jt));
        } else if (di.jf == next) {
            a.jcc(cond, target(di.jt));
        } else if (di.jt == next) {
            a.jcc(negate(cond), target(di.jf));
        } else {
            a.jcc(cond, target(di.jt));
            a.jmp(target(di.jf));
        }
    };

    for (std::size_t pc = 0; pc < n; ++pc) {
        if (is_target[pc]) {
            e.flush();
            a.bind(at[pc]);
        }
        ++e.pending;
        const DecodedInsn& di = prog.insns[pc];
        const auto mem_slot = static_cast<std::int32_t>(di.k * 4);
        switch (di.tok) {
            case Tok::kLdImm: a.mov_ri32(kA, di.k); break;
            case Tok::kLdLen: a.mov_rr32(kA, kWire); break;
            case Tok::kLdMem: a.load32(kA, Reg::rsp, mem_slot); break;

            case Tok::kLdAbsW:
                e.flush();
                if (e.guard_abs(di.k, 4)) e.load_abs(kA, di.k, 4);
                break;
            case Tok::kLdAbsH:
                e.flush();
                if (e.guard_abs(di.k, 2)) e.load_abs(kA, di.k, 2);
                break;
            case Tok::kLdAbsB:
                e.flush();
                if (e.guard_abs(di.k, 1)) e.load_abs(kA, di.k, 1);
                break;
            case Tok::kLdIndW:
                e.flush();
                e.ind_offset(di.k);
                e.guard_ind(4);
                e.load_at_tmp(4);
                break;
            case Tok::kLdIndH:
                e.flush();
                e.ind_offset(di.k);
                e.guard_ind(2);
                e.load_at_tmp(2);
                break;
            case Tok::kLdIndB:
                e.flush();
                e.ind_offset(di.k);
                e.guard_ind(1);
                e.load_at_tmp(1);
                break;

            case Tok::kLdxImm: a.mov_ri32(kX, di.k); break;
            case Tok::kLdxLen: a.mov_rr32(kX, kWire); break;
            case Tok::kLdxMem: a.load32(kX, Reg::rsp, mem_slot); break;
            case Tok::kLdxMsh:
                e.flush();
                if (e.guard_abs(di.k, 1)) e.msh_body(di.k);
                break;

            case Tok::kSt: a.store32(Reg::rsp, mem_slot, kA); break;
            case Tok::kStx: a.store32(Reg::rsp, mem_slot, kX); break;

            case Tok::kAddK: a.alu32_ri(AluOp::kAdd, kA, di.k); break;
            case Tok::kSubK: a.alu32_ri(AluOp::kSub, kA, di.k); break;
            case Tok::kMulK: a.imul32_rri(kA, kA, di.k); break;
            case Tok::kDivK:  // k != 0: verifier-checked
                a.mov_ri32(Reg::rcx, di.k);
                a.alu32_rr(AluOp::kXor, Reg::rdx, Reg::rdx);
                a.div32(Reg::rcx);
                break;
            case Tok::kOrK: a.alu32_ri(AluOp::kOr, kA, di.k); break;
            case Tok::kAndK: a.alu32_ri(AluOp::kAnd, kA, di.k); break;
            case Tok::kLshK: a.shl32_ri(kA, static_cast<std::uint8_t>(di.k)); break;
            case Tok::kRshK: a.shr32_ri(kA, static_cast<std::uint8_t>(di.k)); break;

            case Tok::kAddX: a.alu32_rr(AluOp::kAdd, kA, kX); break;
            case Tok::kSubX: a.alu32_rr(AluOp::kSub, kA, kX); break;
            case Tok::kMulX: a.imul32_rr(kA, kX); break;
            case Tok::kDivX:
                e.flush();
                a.test32_rr(kX, kX);
                a.jcc(Cond::kE, e.fault);
                a.alu32_rr(AluOp::kXor, Reg::rdx, Reg::rdx);
                a.div32(kX);
                break;
            case Tok::kOrX: a.alu32_rr(AluOp::kOr, kA, kX); break;
            case Tok::kAndX: a.alu32_rr(AluOp::kAnd, kA, kX); break;
            case Tok::kLshX: e.shift_by_x(true); break;
            case Tok::kRshX: e.shift_by_x(false); break;
            case Tok::kNeg: a.neg32(kA); break;

            case Tok::kJa:
                e.flush();
                if (di.jt != pc + 1) a.jmp(target(di.jt));
                break;
            case Tok::kJeqK:
                e.flush();
                a.alu32_ri(AluOp::kCmp, kA, di.k);
                cond_jump(Cond::kE, di, pc);
                break;
            case Tok::kJgtK:
                e.flush();
                a.alu32_ri(AluOp::kCmp, kA, di.k);
                cond_jump(Cond::kA, di, pc);
                break;
            case Tok::kJgeK:
                e.flush();
                a.alu32_ri(AluOp::kCmp, kA, di.k);
                cond_jump(Cond::kAe, di, pc);
                break;
            case Tok::kJsetK:
                e.flush();
                a.test32_ri(kA, di.k);
                cond_jump(Cond::kNe, di, pc);
                break;
            case Tok::kJeqX:
                e.flush();
                a.alu32_rr(AluOp::kCmp, kA, kX);
                cond_jump(Cond::kE, di, pc);
                break;
            case Tok::kJgtX:
                e.flush();
                a.alu32_rr(AluOp::kCmp, kA, kX);
                cond_jump(Cond::kA, di, pc);
                break;
            case Tok::kJgeX:
                e.flush();
                a.alu32_rr(AluOp::kCmp, kA, kX);
                cond_jump(Cond::kAe, di, pc);
                break;
            case Tok::kJsetX:
                e.flush();
                a.test32_rr(kA, kX);
                cond_jump(Cond::kNe, di, pc);
                break;

            case Tok::kRetK:
                e.flush();
                a.mov_ri32(kA, di.k);
                e.pack_and_ret(uses_mem);
                break;
            case Tok::kRetA:
                e.flush();
                e.pack_and_ret(uses_mem);
                break;

            case Tok::kTax: a.mov_rr32(kX, kA); break;
            case Tok::kTxa: a.mov_rr32(kA, kX); break;

            case Tok::kCount_:
                throw std::logic_error("compile_to_bytes: kCount_ in program");
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

std::shared_ptr<const JitProgram> JitProgram::compile(const DecodedProgram& prog) {
    if (!supported())
        throw std::runtime_error("JitProgram: native tier unsupported on this build");
    jit::ExecMemory mem(jit::compile_to_bytes(prog));
    return std::shared_ptr<const JitProgram>(new JitProgram(std::move(mem)));
}

}  // namespace capbench::bpf
