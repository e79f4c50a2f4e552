// Shared random-BPF-program generator for the tier-equivalence property
// suites (interpreter vs. jit).  Programs are validator-clean
// by construction — jump offsets stay in range, DIV|K immediates stay
// nonzero, the last slot is always RET — but freely hit the runtime abort
// paths (out-of-bounds loads, division by X == 0).
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>

#include "capbench/bpf/insn.hpp"

namespace capbench::bpf::testgen {

/// Emits one random but validator-clean instruction for position `pc` of a
/// `total`-instruction program.
inline Insn random_insn(std::mt19937& rng, std::size_t pc, std::size_t total) {
    const auto pick = [&rng](std::uint32_t bound) {
        return static_cast<std::uint32_t>(rng() % bound);
    };
    const std::size_t slack = total - 1 - pc - 1;  // insns between pc+1 and last
    switch (pick(12)) {
        case 0: return stmt(BPF_LD | BPF_IMM, pick(1024));
        case 1: {
            const std::uint16_t size =
                pick(3) == 0 ? BPF_W : (pick(2) == 0 ? BPF_H : BPF_B);
            return stmt(BPF_LD | size | BPF_ABS, pick(96));
        }
        case 2: return stmt(BPF_LD | BPF_W | BPF_LEN, 0);
        case 3: return stmt(BPF_LD | BPF_W | BPF_MEM, pick(kMemWords));
        case 4: return stmt(BPF_LDX | BPF_W | BPF_IMM, pick(64));
        case 5: return stmt(BPF_LDX | BPF_B | BPF_MSH, pick(64));
        case 6: return stmt(pick(2) == 0 ? BPF_ST : BPF_STX, pick(kMemWords));
        case 7: {
            static constexpr std::uint16_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                                     BPF_OR,  BPF_AND, BPF_LSH, BPF_RSH};
            const std::uint16_t op = kOps[pick(8)];
            const std::uint32_t k = op == BPF_DIV ? 1 + pick(16) : pick(64);
            return stmt(BPF_ALU | op | BPF_K, k);
        }
        case 8: {
            static constexpr std::uint16_t kOps[] = {BPF_ADD, BPF_SUB, BPF_AND, BPF_OR,
                                                     BPF_DIV};
            return stmt(BPF_ALU | kOps[pick(5)] | BPF_X, 0);
        }
        case 9: {
            const std::uint16_t size = pick(2) == 0 ? BPF_H : BPF_B;
            return stmt(BPF_LD | size | BPF_IND, pick(32));
        }
        case 10:
            return Insn{static_cast<std::uint16_t>(pick(2) == 0 ? BPF_MISC | BPF_TAX
                                                                : BPF_MISC | BPF_TXA),
                        0, 0, 0};
        default: {
            if (slack == 0) return stmt(BPF_LD | BPF_IMM, pick(64));
            static constexpr std::uint16_t kOps[] = {BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET};
            const auto off = [&] {
                return static_cast<std::uint8_t>(pick(static_cast<std::uint32_t>(
                    std::min<std::size_t>(slack + 1, 255))));
            };
            if (pick(4) == 0) return jump(BPF_JMP | BPF_JA, off(), 0, 0);
            return jump(BPF_JMP | kOps[pick(4)] | BPF_K, pick(256), off(), off());
        }
    }
}

/// A validator-clean random program: a deterministic prologue defines A
/// and X (clean for the abstract interpreter as well as the VM), then a
/// 2–25 instruction body, then RET.
inline Program random_program(std::mt19937& rng) {
    const std::size_t body = 2 + rng() % 24;
    Program prog;
    prog.push_back(stmt(BPF_LD | BPF_IMM, static_cast<std::uint32_t>(rng() % 256)));
    prog.push_back(stmt(BPF_LDX | BPF_W | BPF_IMM, static_cast<std::uint32_t>(rng() % 64)));
    const std::size_t total = prog.size() + body + 1;
    for (std::size_t i = 0; i < body; ++i)
        prog.push_back(random_insn(rng, prog.size(), total));
    prog.push_back(rng() % 2 == 0 ? stmt(BPF_RET | BPF_A, 0)
                                  : stmt(BPF_RET | BPF_K, static_cast<std::uint32_t>(rng() % 2000)));
    return prog;
}

}  // namespace capbench::bpf::testgen
