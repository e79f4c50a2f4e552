// Tests for the BPF static analyzer: CFG construction, the abstract value
// domain, the diagnostics verify() reports, and the optimizer (including a
// VM equivalence property check over random programs and packets).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "capbench/bpf/analysis/cfg.hpp"
#include "capbench/bpf/analysis/domain.hpp"
#include "capbench/bpf/analysis/optimize.hpp"
#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/validator.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/harness/experiment.hpp"

#include "bpf_random_program.hpp"

namespace capbench::bpf {
namespace {

using analysis::AbsVal;
using analysis::Cfg;
using analysis::Finding;
using analysis::Severity;

std::vector<std::byte> bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (const int v : values) out.push_back(static_cast<std::byte>(v));
    return out;
}

bool has_warning_at(const std::vector<Finding>& findings, std::size_t insn,
                    const std::string& fragment) {
    return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.severity == Severity::kWarning && f.insn == insn &&
               f.message.find(fragment) != std::string::npos;
    });
}

// ---------------------------------------------------------------------------
// CFG

TEST(Cfg, SuccessorsPerInstructionKind) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),                // 0 -> 1
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 1, 0),         // 1 -> 3, 2
        stmt(BPF_JMP | BPF_JA, 1),                        // 2 -> 4
        stmt(BPF_RET | BPF_K, 1),                         // 3 -> none
        stmt(BPF_RET | BPF_K, 0),                         // 4 -> none
    };
    EXPECT_EQ(analysis::insn_successors(prog, 0), (std::vector<std::size_t>{1}));
    EXPECT_EQ(analysis::insn_successors(prog, 1), (std::vector<std::size_t>{3, 2}));
    EXPECT_EQ(analysis::insn_successors(prog, 2), (std::vector<std::size_t>{4}));
    EXPECT_TRUE(analysis::insn_successors(prog, 3).empty());
}

TEST(Cfg, FlagsUnreachableInstructions) {
    const Program prog{
        stmt(BPF_JMP | BPF_JA, 1),       // 0: skips insn 1
        stmt(BPF_LD | BPF_IMM, 7),       // 1: unreachable
        stmt(BPF_RET | BPF_K, 0),        // 2
    };
    const Cfg cfg = Cfg::build(prog);
    ASSERT_EQ(cfg.reachable.size(), prog.size());
    EXPECT_TRUE(cfg.reachable[0]);
    EXPECT_FALSE(cfg.reachable[1]);
    EXPECT_TRUE(cfg.reachable[2]);
}

// ---------------------------------------------------------------------------
// Abstract domain

TEST(Domain, JoinAndRefine) {
    const AbsVal five = AbsVal::constant(5);
    const AbsVal nine = AbsVal::constant(9);
    const AbsVal joined = analysis::join(five, nine);
    EXPECT_TRUE(joined.contains(5));
    EXPECT_TRUE(joined.contains(9));
    EXPECT_FALSE(joined.is_constant());

    // After a not-taken JEQ #5, the value cannot be 5 any more.
    const auto refined = analysis::refine(joined, BPF_JEQ, 5, /*taken=*/false);
    ASSERT_TRUE(refined.has_value());
    EXPECT_FALSE(refined->contains(5));
    EXPECT_TRUE(refined->contains(9));

    // The taken edge of JEQ #7 on a constant 5 is infeasible.
    EXPECT_FALSE(analysis::refine(five, BPF_JEQ, 7, /*taken=*/true).has_value());
}

TEST(Domain, AluTransferFoldsConstants) {
    const AbsVal six = AbsVal::constant(6);
    const AbsVal seven = AbsVal::constant(7);
    EXPECT_EQ(analysis::alu_transfer(BPF_MUL, six, seven).constant_value(), 42u);
    EXPECT_EQ(analysis::alu_transfer(BPF_LSH, six, AbsVal::constant(40)).constant_value(),
              0u);  // VM semantics: shifts >= 32 yield 0
    const AbsVal byte = AbsVal::range(0, 255);
    const AbsVal masked = analysis::alu_transfer(BPF_AND, byte, AbsVal::constant(0x0F));
    EXPECT_EQ(masked.hi, 0x0Fu);
}

TEST(Domain, CompareDecidesDisjointRanges) {
    const AbsVal byte = AbsVal::range(0, 255);
    EXPECT_EQ(analysis::compare(BPF_JGT, byte, AbsVal::constant(300)), false);
    EXPECT_EQ(analysis::compare(BPF_JEQ, byte, AbsVal::constant(0x800)), false);
    EXPECT_EQ(analysis::compare(BPF_JEQ, byte, AbsVal::constant(9)), std::nullopt);
}

// ---------------------------------------------------------------------------
// verify() diagnostics

TEST(Analyze, FlagsUnreachableCode) {
    const Program prog{
        stmt(BPF_JMP | BPF_JA, 1),
        stmt(BPF_LD | BPF_IMM, 7),  // skipped by the jump
        stmt(BPF_RET | BPF_K, 1),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 1, "unreachable"));
}

TEST(Analyze, FlagsUninitializedScratchRead) {
    const Program prog{
        stmt(BPF_LD | BPF_W | BPF_MEM, 3),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 0, "uninitialized scratch memory M[3]"));
}

TEST(Analyze, FlagsScratchMaybeUninitializedOnSomePaths) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),         // 0: A = pkt[0], unknown
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 0, 1),  // 1: taken -> 2, else -> 3
        stmt(BPF_ST, 0),                           // 2: writes M[0] on one path
        stmt(BPF_LD | BPF_W | BPF_MEM, 0),         // 3: read
        stmt(BPF_RET | BPF_A, 0),                  // 4
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 3, "may be uninitialized"));
}

TEST(Analyze, FlagsUninitializedX) {
    const Program prog{
        stmt(BPF_MISC | BPF_TXA, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 0, "uninitialized index register X"));
}

TEST(Analyze, FlagsDivisionByPossiblyZeroX) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),   // A = pkt[0] in [0, 255]
        stmt(BPF_MISC | BPF_TAX, 0),         // X = A
        stmt(BPF_LD | BPF_IMM, 100),
        stmt(BPF_ALU | BPF_DIV | BPF_X, 0),  // X may be zero
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 3, "possibly-zero X"));
}

TEST(Analyze, FlagsNeverAcceptingFilter) {
    EXPECT_TRUE(has_warning_at(verify(reject_all()).findings, 0, "never accept"));

    // A conditional filter where both returns are zero.
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 0, 1),
        stmt(BPF_RET | BPF_K, 0),
        stmt(BPF_RET | BPF_K, 0),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 2, "never accept"));
}

TEST(Analyze, FlagsRetAWithProvenZeroRange) {
    // A is masked to zero before RET A: provably never accepts.
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        stmt(BPF_ALU | BPF_AND | BPF_K, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 2, "never accept"));
}

TEST(Analyze, FlagsDegenerateConditionalJump) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 0, 0),  // jt == jf
        stmt(BPF_RET | BPF_K, 1),
    };
    EXPECT_EQ(validate(prog), std::nullopt);  // legal, just pointless
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 1, "identical targets"));
}

TEST(Analyze, FlagsImpossibleAbsoluteLoad) {
    const Program prog{
        stmt(BPF_LD | BPF_W | BPF_ABS, 70000),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto findings = verify(prog).findings;
    EXPECT_TRUE(has_warning_at(findings, 0, "never be in bounds"));
}

TEST(Analyze, InvalidProgramYieldsSingleError) {
    const VerifyResult result = verify({});
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].severity, Severity::kError);
    EXPECT_FALSE(result.ok());
}

TEST(Analyze, CleanFilterHasNoWarnings) {
    const auto prog = filter::compile_filter("ip", 1515, {.optimize = false});
    const VerifyResult result = verify(prog);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(std::none_of(result.findings.begin(), result.findings.end(),
                             [](const Finding& f) { return f.severity == Severity::kWarning; }));
}

TEST(Analyze, ReportsReturnValueRange) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto findings = verify(prog).findings;
    const bool has_range = std::any_of(
        findings.begin(), findings.end(), [](const Finding& f) {
            return f.severity == Severity::kInfo &&
                   f.message.find("[0, 255]") != std::string::npos;
        });
    EXPECT_TRUE(has_range);
}

// ---------------------------------------------------------------------------
// Optimizer

TEST(Optimize, CollapsesDegenerateJump) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 0, 0),  // jt == jf: a no-op
        stmt(BPF_RET | BPF_K, 9),
    };
    const auto optimized = analysis::optimize(prog);
    ASSERT_EQ(optimized.size(), 2u);  // the load must stay: it can reject
    EXPECT_EQ(bpf_class(optimized[0].code), BPF_LD);
    EXPECT_EQ(bpf_class(optimized[1].code), BPF_RET);
    // Equivalence including the trapping case (empty packet).
    EXPECT_EQ(Vm::run(optimized, {}).accept_len, Vm::run(prog, {}).accept_len);
    const auto data = bytes({42});
    EXPECT_EQ(Vm::run(optimized, data).accept_len, Vm::run(prog, data).accept_len);
}

TEST(Optimize, FoldsConstantArithmetic) {
    const Program prog{
        stmt(BPF_LD | BPF_IMM, 6),
        stmt(BPF_ALU | BPF_MUL | BPF_K, 7),
        stmt(BPF_ALU | BPF_ADD | BPF_K, 1),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto optimized = analysis::optimize(prog);
    ASSERT_EQ(optimized.size(), 1u);
    EXPECT_EQ(optimized[0].code, BPF_RET | BPF_K);
    EXPECT_EQ(optimized[0].k, 43u);
}

TEST(Optimize, RemovesDeadStores) {
    const Program prog{
        stmt(BPF_LD | BPF_IMM, 1),
        stmt(BPF_ST, 2),           // M[2] never read
        stmt(BPF_RET | BPF_K, 7),
    };
    const auto optimized = analysis::optimize(prog);
    ASSERT_EQ(optimized.size(), 1u);
    EXPECT_EQ(optimized[0].k, 7u);
}

TEST(Optimize, RemovesRedundantReload) {
    const Program prog{
        stmt(BPF_LD | BPF_H | BPF_ABS, 12),
        stmt(BPF_LD | BPF_H | BPF_ABS, 12),  // same value, provably in bounds
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto optimized = analysis::optimize(prog);
    EXPECT_EQ(optimized.size(), 2u);
}

TEST(Optimize, KeepsTrappingLoadWithDeadResult) {
    // pkt[0] is never used, but the load rejects empty packets, so it must
    // survive dead-code elimination.
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        stmt(BPF_RET | BPF_K, 5),
    };
    const auto optimized = analysis::optimize(prog);
    ASSERT_EQ(optimized.size(), 2u);
    EXPECT_EQ(Vm::run(optimized, {}).accept_len, 0u);
    EXPECT_EQ(Vm::run(optimized, bytes({1})).accept_len, 5u);
}

TEST(Optimize, KeepsPossiblyTrappingDivision) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        stmt(BPF_MISC | BPF_TAX, 0),
        stmt(BPF_LD | BPF_IMM, 8),
        stmt(BPF_ALU | BPF_DIV | BPF_X, 0),  // rejects when pkt[0] == 0
        stmt(BPF_RET | BPF_K, 1),
    };
    const auto optimized = analysis::optimize(prog);
    const bool has_div = std::any_of(
        optimized.begin(), optimized.end(), [](const Insn& insn) {
            return bpf_class(insn.code) == BPF_ALU && bpf_op(insn.code) == BPF_DIV;
        });
    EXPECT_TRUE(has_div);
    EXPECT_EQ(Vm::run(optimized, bytes({0})).accept_len, 0u);
    EXPECT_EQ(Vm::run(optimized, bytes({2})).accept_len, 1u);
}

TEST(Optimize, ThreadsJumpChains) {
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1),
        stmt(BPF_JMP | BPF_JA, 1),  // hop
        stmt(BPF_RET | BPF_K, 0),
        stmt(BPF_RET | BPF_K, 1),
    };
    const auto optimized = analysis::optimize(prog);
    EXPECT_LT(optimized.size(), prog.size());
    for (const auto& d : {bytes({0}), bytes({1}), bytes({2})})
        EXPECT_EQ(Vm::run(optimized, d).accept_len, Vm::run(prog, d).accept_len);
}

TEST(Optimize, InvalidProgramReturnedUnchanged) {
    const Program broken{stmt(BPF_LD | BPF_IMM, 1)};  // no RET
    EXPECT_EQ(analysis::optimize(broken), broken);
}

TEST(Optimize, ShrinksFigure65FilterSubstantially) {
    const auto expr = harness::fig_6_5_filter_expression();
    const auto stock = filter::compile_filter(expr, 1515, {.optimize = false});
    analysis::OptimizeStats stats;
    const auto optimized = analysis::optimize(stock, &stats);
    EXPECT_LT(optimized.size(), stock.size());
    EXPECT_LE(optimized.size(), 60u);  // tcpdump -O reaches 50 on this filter
    EXPECT_EQ(stats.insns_before, stock.size());
    EXPECT_EQ(stats.insns_after, optimized.size());
    EXPECT_GT(stats.rounds, 0);
    EXPECT_EQ(validate(optimized), std::nullopt);
}

// ---------------------------------------------------------------------------
// Property: optimize() is semantics-preserving.

class ProgramFuzzer {
public:
    explicit ProgramFuzzer(std::uint32_t seed) : rng_(seed) {}

    /// A random valid program: straight-line-ish code with random forward
    /// jumps, always ending in RET.
    Program next() {
        for (;;) {
            Program prog = generate();
            if (!validate(prog)) return prog;
        }
    }

    std::vector<std::byte> packet() {
        std::vector<std::byte> out(pick(0, 64));
        for (auto& b : out) b = static_cast<std::byte>(pick(0, 255));
        return out;
    }

private:
    std::uint32_t pick(std::uint32_t lo, std::uint32_t hi) {
        return std::uniform_int_distribution<std::uint32_t>{lo, hi}(rng_);
    }

    Program generate() {
        const std::size_t body = pick(1, 24);
        Program prog;
        for (std::size_t i = 0; i < body; ++i) prog.push_back(random_insn(body - i));
        prog.push_back(pick(0, 1) != 0 ? stmt(BPF_RET | BPF_A, 0)
                                       : stmt(BPF_RET | BPF_K, pick(0, 2)));
        return prog;
    }

    Insn random_insn(std::size_t remaining) {
        // `remaining` counts instructions after this one, excluding the
        // final RET, so offsets up to `remaining` always stay in range.
        const auto off = [&] {
            return static_cast<std::uint8_t>(pick(0, std::min<std::size_t>(remaining, 6)));
        };
        switch (pick(0, 17)) {
            case 0: return stmt(BPF_LD | BPF_IMM, pick(0, 300));
            case 1: return stmt(BPF_LD | BPF_B | BPF_ABS, pick(0, 70));
            case 2: return stmt(BPF_LD | BPF_H | BPF_ABS, pick(0, 70));
            case 3: return stmt(BPF_LD | BPF_W | BPF_ABS, pick(0, 70));
            case 4: return stmt(BPF_LD | BPF_W | BPF_LEN, 0);
            case 5: return stmt(BPF_LD | BPF_W | BPF_MEM, pick(0, kMemWords - 1));
            case 6: return stmt(BPF_LDX | BPF_W | BPF_IMM, pick(0, 40));
            case 7: return stmt(BPF_LDX | BPF_B | BPF_MSH, pick(0, 70));
            case 8: return stmt(BPF_LDX | BPF_W | BPF_MEM, pick(0, kMemWords - 1));
            case 9: return stmt(BPF_ST, pick(0, kMemWords - 1));
            case 10: return stmt(BPF_STX, pick(0, kMemWords - 1));
            case 11: {
                constexpr std::uint16_t ops[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_AND,
                                                 BPF_OR, BPF_LSH, BPF_RSH};
                return stmt(BPF_ALU | ops[pick(0, 6)] | BPF_K, pick(0, 40));
            }
            case 12: {
                constexpr std::uint16_t ops[] = {BPF_ADD, BPF_SUB, BPF_AND, BPF_OR};
                return stmt(BPF_ALU | ops[pick(0, 3)] | BPF_X, 0);
            }
            case 13: return stmt(BPF_ALU | BPF_DIV | BPF_K, pick(1, 9));
            case 14: return stmt(BPF_ALU | BPF_DIV | BPF_X, 0);
            case 15: return pick(0, 1) != 0 ? stmt(BPF_MISC | BPF_TAX, 0)
                                            : stmt(BPF_MISC | BPF_TXA, 0);
            case 16: return stmt(BPF_JMP | BPF_JA, off());
            default: {
                constexpr std::uint16_t ops[] = {BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET};
                const std::uint16_t src = pick(0, 3) == 0 ? BPF_X : BPF_K;
                return jump(BPF_JMP | ops[pick(0, 3)] | src, pick(0, 300), off(), off());
            }
        }
    }

    std::mt19937 rng_;
};

TEST(OptimizeProperty, PreservesVmSemanticsOnRandomPrograms) {
    ProgramFuzzer fuzz{0xC0FFEE};
    std::size_t comparisons = 0;
    for (int p = 0; p < 150; ++p) {
        const Program prog = fuzz.next();
        const Program optimized = analysis::optimize(prog);
        EXPECT_EQ(validate(optimized), std::nullopt);
        EXPECT_LE(optimized.size(), prog.size());
        for (int i = 0; i < 20; ++i) {
            const auto pkt = fuzz.packet();
            const auto want = Vm::run(prog, pkt).accept_len;
            const auto got = Vm::run(optimized, pkt).accept_len;
            ASSERT_EQ(got, want) << "program:\n"
                                 << disassemble(prog) << "optimized:\n"
                                 << disassemble(optimized) << "packet len "
                                 << pkt.size();
            ++comparisons;
        }
    }
    EXPECT_GE(comparisons, 1000u);
}

// The optimizer's dead-def sweep now rides on the shared analysis::Liveness
// module (the same computation behind the fact table's dead_store flags).
// Exercise it with the tier-equivalence generator too — a different
// instruction mix, richer in scratch stores and runtime-abort paths.
TEST(OptimizeProperty, SharedLivenessSweepPreservesSemantics) {
    std::mt19937 rng{0xBEEF01};
    for (int p = 0; p < 150; ++p) {
        const Program prog = testgen::random_program(rng);
        const Program optimized = analysis::optimize(prog);
        EXPECT_EQ(validate(optimized), std::nullopt);
        EXPECT_LE(optimized.size(), prog.size());
        for (int i = 0; i < 10; ++i) {
            std::vector<std::byte> pkt(rng() % 96);
            for (auto& b : pkt) b = static_cast<std::byte>(rng() & 0xFF);
            const auto want = Vm::run(prog, pkt).accept_len;
            const auto got = Vm::run(optimized, pkt).accept_len;
            ASSERT_EQ(got, want) << "program:\n"
                                 << disassemble(prog) << "optimized:\n"
                                 << disassemble(optimized) << "packet len "
                                 << pkt.size();
        }
    }
}

TEST(Optimize, RemovesShadowedScratchStores) {
    // The first store to M[2] is shadowed before any read: statically dead
    // under the shared liveness, so the sweep must drop it.
    const Program prog = {
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        stmt(BPF_ST, 2),  // dead: overwritten below before any load
        stmt(BPF_LD | BPF_B | BPF_ABS, 1),
        stmt(BPF_ST, 2),
        stmt(BPF_LD | BPF_B | BPF_ABS, 2),
        stmt(BPF_LD | BPF_W | BPF_MEM, 2),
        stmt(BPF_RET | BPF_A, 0),
    };
    const Program optimized = analysis::optimize(prog);
    std::size_t stores = 0;
    for (const Insn& insn : optimized)
        if (bpf_class(insn.code) == BPF_ST) ++stores;
    EXPECT_EQ(stores, 1u);
    const auto pkt = bytes({10, 20, 30});
    EXPECT_EQ(Vm::run(optimized, pkt).accept_len, Vm::run(prog, pkt).accept_len);
    EXPECT_EQ(Vm::run(optimized, pkt).accept_len, 20u);
}

// Stock and optimized programs accept the same packets, and each one takes
// the attach path a capture stack takes: verify() passes it, and its
// decoded jit code matches the interpreter on verdict, executed
// instructions and abort flag.  Half the packets are truncated captures
// (wire length past the data), where bounds-check elision is riskiest;
// the last two expressions fault at runtime on every IPv4 frame.
TEST(OptimizeProperty, OptimizedFiltersMatchStockFilters) {
    const char* expressions[] = {
        "ip",
        "tcp or udp",
        "not not ip",
        "ip src 10.11.12.13 and not tcp",
        "udp and dst host 192.168.10.12",
        "ether[6:4] = 0x00000000 and ip[8] > 3",
        "len > 100 and len <= 1400",
        "ether[70000] = 1",
        "ip[2:2] / (len & 0) > 1",
    };
    std::mt19937 rng{1234};
    std::uniform_int_distribution<int> byte{0, 255};
    std::uniform_int_distribution<std::size_t> len{0, 120};
    std::uniform_int_distribution<std::uint32_t> cut{1, 64};
    for (const char* expr : expressions) {
        const auto stock = filter::compile_filter(expr, 1515, {.optimize = false});
        const auto optimized = filter::compile_filter(expr, 1515);
        EXPECT_LE(optimized.size(), stock.size());
        std::vector<std::shared_ptr<const JitProgram>> jitted;
        for (const Program* prog : {&stock, &optimized}) {
            const VerifyResult verdict = verify(*prog);
            ASSERT_TRUE(verdict.ok())
                << expr << ": " << analysis::to_string(*verdict.first_error());
            if (JitProgram::supported())
                jitted.push_back(JitProgram::compile(decode(*prog, verdict.facts)));
        }
        for (int i = 0; i < 200; ++i) {
            std::vector<std::byte> pkt(len(rng));
            for (auto& b : pkt) b = static_cast<std::byte>(byte(rng));
            if (pkt.size() > 13 && i % 4 < 2) {  // bias toward IPv4 frames
                pkt[12] = std::byte{0x08};
                pkt[13] = std::byte{0x00};
            }
            // Odd packets are truncated captures: wire length past the data.
            const auto wire =
                static_cast<std::uint32_t>(pkt.size()) + (i % 2 == 0 ? 0 : cut(rng));
            const VmResult interp[] = {Vm::run(stock, pkt, wire), Vm::run(optimized, pkt, wire)};
            ASSERT_EQ(interp[1].accept_len, interp[0].accept_len)
                << expr << " packet len " << pkt.size() << " wire " << wire;
            for (std::size_t t = 0; t < jitted.size(); ++t) {
                const VmResult jit = jitted[t]->run(pkt, wire);
                const char* which = t == 0 ? " (stock)" : " (optimized)";
                ASSERT_EQ(jit.accept_len, interp[t].accept_len)
                    << expr << which << " wire " << wire;
                ASSERT_EQ(jit.insns_executed, interp[t].insns_executed) << expr << which;
                ASSERT_EQ(jit.aborted, interp[t].aborted) << expr << which;
            }
        }
    }
}

}  // namespace
}  // namespace capbench::bpf
