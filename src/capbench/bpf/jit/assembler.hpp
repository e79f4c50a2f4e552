// Minimal x86-64 assembler for the BPF native code generator.
//
// Emits into a plain byte vector: REX-aware ModRM/SIB encoding for the
// handful of instruction forms the BPF lowering needs, plus labels with
// rel32 jump fixups (bind in any order; finish() patches every reference
// and refuses unbound labels).  The encoder itself is portable — it only
// produces bytes — so codegen unit tests run on every host; only mapping
// and executing the result is x86-64-specific (exec_memory.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace capbench::bpf::jit {

/// Hardware register numbers (ModRM/REX encoding order).
enum class Reg : std::uint8_t {
    rax = 0, rcx, rdx, rbx, rsp, rbp, rsi, rdi,
    r8, r9, r10, r11, r12, r13, r14, r15,
};

/// Condition codes (the low nibble of the 0F 8x / 0F 4x opcode families).
enum class Cond : std::uint8_t {
    kB = 0x2,   // below (unsigned <)
    kAe = 0x3,  // above-or-equal (unsigned >=)
    kE = 0x4,   // equal / zero
    kNe = 0x5,  // not equal / not zero
    kBe = 0x6,  // below-or-equal (unsigned <=)
    kA = 0x7,   // above (unsigned >)
};

/// Flip a condition to its logical negation (x86 pairs them adjacently).
constexpr Cond negate(Cond c) {
    return static_cast<Cond>(static_cast<std::uint8_t>(c) ^ 1u);
}

/// ALU group-1 operations: the /digit for 81/83 immediates, and the
/// "r/m, reg" opcode is op * 8 + 1.
enum class AluOp : std::uint8_t {
    kAdd = 0,
    kOr = 1,
    kAnd = 4,
    kSub = 5,
    kXor = 6,
    kCmp = 7,
};

class Assembler {
public:
    struct Label {
        std::uint32_t index = 0;
    };

    Label make_label();
    /// Fixes the label to the current position; each label binds once.
    void bind(Label label);

    // -- moves ------------------------------------------------------------
    void mov_ri32(Reg dst, std::uint32_t imm);  // also zeroes the upper half
    void mov_ri64(Reg dst, std::uint64_t imm);
    void mov_rr32(Reg dst, Reg src);
    // loads/stores: [base + disp] and [base + index*1 + disp]
    void load32(Reg dst, Reg base, std::int32_t disp);
    void load32_bi(Reg dst, Reg base, Reg index, std::int32_t disp);
    void movzx8(Reg dst, Reg base, std::int32_t disp);
    void movzx8_bi(Reg dst, Reg base, Reg index, std::int32_t disp);
    void movzx16(Reg dst, Reg base, std::int32_t disp);
    void movzx16_bi(Reg dst, Reg base, Reg index, std::int32_t disp);
    void store32(Reg base, std::int32_t disp, Reg src);
    void store64_imm32(Reg base, std::int32_t disp, std::int32_t imm);
    void cmov32(Cond cond, Reg dst, Reg src);

    // -- arithmetic / logic ----------------------------------------------
    void alu32_ri(AluOp op, Reg dst, std::uint32_t imm);
    void alu32_rr(AluOp op, Reg dst, Reg src);  // dst is the r/m operand
    void alu64_ri(AluOp op, Reg dst, std::int32_t imm);  // imm sign-extended
    void alu64_rr(AluOp op, Reg dst, Reg src);
    void imul32_rr(Reg dst, Reg src);
    void imul32_rri(Reg dst, Reg src, std::uint32_t imm);
    void div32(Reg divisor);  // edx:eax / r32 -> eax (caller zeroes edx)
    void neg32(Reg reg);
    void test32_rr(Reg a, Reg b);
    void test32_ri(Reg reg, std::uint32_t imm);
    void shl32_ri(Reg reg, std::uint8_t imm);
    void shr32_ri(Reg reg, std::uint8_t imm);
    void shl32_cl(Reg reg);
    void shr32_cl(Reg reg);
    void shl64_ri(Reg reg, std::uint8_t imm);
    void bswap32(Reg reg);
    void lea64(Reg dst, Reg base, std::int32_t disp);

    // -- control flow -----------------------------------------------------
    void jmp(Label target);             // E9 rel32
    void jcc(Cond cond, Label target);  // 0F 8x rel32
    void push64(Reg reg);
    void pop64(Reg reg);
    void ret();

    /// Patches every rel32 reference and returns the code.  Throws
    /// std::logic_error if a referenced label was never bound.
    std::vector<std::uint8_t> finish();

    [[nodiscard]] std::size_t size() const { return code_.size(); }

private:
    struct LabelState {
        std::int64_t pos = -1;              // bound position, -1 while open
        std::vector<std::size_t> fixups;    // rel32 patch offsets
    };

    void u8(std::uint8_t v) { code_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void rex(bool w, Reg reg, Reg index, Reg base);
    void modrm(std::uint8_t mod, std::uint8_t reg, std::uint8_t rm);
    void mem(std::uint8_t reg_field, Reg base, std::int32_t disp);
    void mem_bi(std::uint8_t reg_field, Reg base, Reg index, std::int32_t disp);
    void rel32(Label target);

    std::vector<std::uint8_t> code_;
    std::vector<LabelState> labels_;
};

}  // namespace capbench::bpf::jit
