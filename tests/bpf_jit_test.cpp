// Native x86-64 BPF execution: interpreter-vs-jit equivalence property
// sweep, exact abort semantics, W^X mapping lifecycle, the non-x86-64
// fallback policy, and the program cache's jit/stats extensions.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/filter/lexer.hpp"
#include "capbench/bpf/jit/assembler.hpp"
#include "capbench/bpf/jit/exec_memory.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/validator.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/harness/sut.hpp"
#include "capbench/sim/simulator.hpp"

#include "bpf_random_program.hpp"

namespace capbench::bpf {
namespace {

DecodedProgram decode_standalone(const Program& prog) {
    return decode(prog, verify(prog).facts);
}

// ---- interpreter-vs-jit equivalence property sweep -------------------------

TEST(JitTierEquivalence, ThousandRandomProgramsMatchByteForByte) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    std::mt19937 rng{20260809};
    int programs = 0;
    int aborts_seen = 0;
    while (programs < 1000) {
        const Program prog = testgen::random_program(rng);
        ASSERT_EQ(validate(prog), std::nullopt) << disassemble(prog);
        ++programs;
        const DecodedProgram decoded = decode_standalone(prog);
        const auto jitted = JitProgram::compile(decoded);

        for (int trial = 0; trial < 4; ++trial) {
            std::vector<std::byte> data(rng() % 100);
            for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
            // wire_len >= data.size(): truncated captures included.
            const auto wire = static_cast<std::uint32_t>(data.size() + rng() % 64);
            const VmResult interp = Vm::run(prog, data, wire);
            const VmResult jit = jitted->run(data, wire);
            ASSERT_EQ(interp.accept_len, jit.accept_len)
                << disassemble(prog) << "data size " << data.size() << " wire " << wire;
            ASSERT_EQ(interp.aborted, jit.aborted) << disassemble(prog);
            ASSERT_EQ(interp.insns_executed, jit.insns_executed) << disassemble(prog);
            if (interp.aborted) ++aborts_seen;
        }
    }
    // The generator must actually exercise the abort paths for the
    // equivalence claim to mean anything.
    EXPECT_GT(aborts_seen, 0);
}

// ---- abort semantics -------------------------------------------------------

TEST(JitAbort, DivisionByXZeroCountsTheFaultingInstruction) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // X = pkt[0]; A = 100; A /= X; ret A — the divisor is data-dependent.
    const Program prog = {
        stmt(BPF_LDX | BPF_B | BPF_MSH, 0),  // X = 4 * (pkt[0] & 0x0F)
        stmt(BPF_LD | BPF_IMM, 100),
        stmt(BPF_ALU | BPF_DIV | BPF_X, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto jitted = JitProgram::compile(decode_standalone(prog));

    const std::vector<std::byte> zero{std::byte{0x20}};  // low nibble 0 -> X = 0
    const VmResult faulted = jitted->run(zero, 1);
    EXPECT_TRUE(faulted.aborted);
    EXPECT_EQ(faulted.accept_len, 0u);
    EXPECT_EQ(faulted.insns_executed, 3u);  // the div itself is counted

    const std::vector<std::byte> five{std::byte{0x05}};  // X = 20
    const VmResult ok = jitted->run(five, 1);
    EXPECT_FALSE(ok.aborted);
    EXPECT_EQ(ok.accept_len, 5u);  // 100 / 20
    EXPECT_EQ(ok.insns_executed, 4u);
}

TEST(JitAbort, OutOfBoundsLoadMatchesInterpreterExactly) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const Program prog = {
        stmt(BPF_LD | BPF_W | BPF_ABS, 100),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto jitted = JitProgram::compile(decode_standalone(prog));
    const std::vector<std::byte> tiny(4, std::byte{0xAB});
    const VmResult interp = Vm::run(prog, tiny, 4);
    const VmResult jit = jitted->run(tiny, 4);
    EXPECT_TRUE(jit.aborted);
    EXPECT_EQ(jit.accept_len, interp.accept_len);
    EXPECT_EQ(jit.insns_executed, interp.insns_executed);
    EXPECT_EQ(jit.insns_executed, 1u);

    // Boundary: exactly enough bytes for the last word succeeds.
    std::vector<std::byte> exact(104, std::byte{0});
    exact[100] = std::byte{0x12};
    exact[103] = std::byte{0x34};
    const VmResult hit = jitted->run(exact, 104);
    EXPECT_FALSE(hit.aborted);
    EXPECT_EQ(hit.accept_len, 0x12000034u);
}

TEST(JitAbort, FallthroughOffTheEndHitsTheDefensiveFaultPath) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // The verifier forbids fallthrough, so hand-build the decoded form: one
    // plain instruction, no RET.  The interpreter semantics for the same
    // source ({ld #5}) reject after executing the one instruction.
    DecodedProgram prog;
    prog.insns.push_back(DecodedInsn{Tok::kLdImm, 0, 5, 0, 0});
    const auto jitted = JitProgram::compile(prog);
    const VmResult r = jitted->run({}, 0);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.accept_len, 0u);
    EXPECT_EQ(r.insns_executed, 1u);

    const VmResult interp = Vm::run({stmt(BPF_LD | BPF_IMM, 5)}, {}, 0);
    EXPECT_EQ(r.aborted, interp.aborted);
    EXPECT_EQ(r.insns_executed, interp.insns_executed);
}

TEST(JitAbort, EmptyProgramAbortsLikeTheInterpreter) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const auto jitted = JitProgram::compile(DecodedProgram{});
    const VmResult jit = jitted->run({}, 0);
    const VmResult interp = Vm::run(Program{}, {}, 0);
    EXPECT_TRUE(jit.aborted);
    EXPECT_EQ(jit.aborted, interp.aborted);
    EXPECT_EQ(jit.insns_executed, interp.insns_executed);
    EXPECT_EQ(jit.accept_len, interp.accept_len);
}

// ---- fact-driven elisions --------------------------------------------------

TEST(JitElision, DeadStoreIsFlaggedSkippedAndStillCounted) {
    // A store whose slot is never read is liveness-dead: flagged at decode
    // time, elided from the emitted code, still counted as executed.
    const Program dead = {
        stmt(BPF_LD | BPF_IMM, 7),
        stmt(BPF_ST, 3),  // M[3] never read
        stmt(BPF_LD | BPF_IMM, 9),
        stmt(BPF_RET | BPF_A, 0),
    };
    const DecodedProgram decoded = decode_standalone(dead);
    EXPECT_NE(decoded.insns[1].flags & kDecodedDeadStore, 0);
    EXPECT_EQ(decoded.stats.dead_stores, 1u);

    const Program live = {
        stmt(BPF_LD | BPF_IMM, 7),
        stmt(BPF_ST, 3),
        stmt(BPF_LD | BPF_W | BPF_MEM, 3),
        stmt(BPF_RET | BPF_A, 0),
    };
    const DecodedProgram live_decoded = decode_standalone(live);
    EXPECT_EQ(live_decoded.insns[1].flags & kDecodedDeadStore, 0);
    EXPECT_EQ(live_decoded.stats.dead_stores, 0u);

    if (!JitProgram::supported()) return;
    const VmResult jit = JitProgram::compile(decoded)->run({}, 0);
    const VmResult interp = Vm::run(dead, {}, 0);
    EXPECT_EQ(jit.accept_len, interp.accept_len);
    EXPECT_EQ(jit.insns_executed, interp.insns_executed);  // 4: the store counts
    EXPECT_EQ(jit.insns_executed, 4u);

    const VmResult live_jit = JitProgram::compile(live_decoded)->run({}, 0);
    EXPECT_EQ(live_jit.accept_len, 7u);
}

TEST(JitElision, CodegenIsDeterministicPerProgram) {
    std::mt19937 rng{7};
    for (int i = 0; i < 20; ++i) {
        const Program prog = testgen::random_program(rng);
        const DecodedProgram decoded = decode_standalone(prog);
        EXPECT_EQ(jit::compile_to_bytes(decoded), jit::compile_to_bytes(decoded));
    }
}

// ---- W^X mapping lifecycle -------------------------------------------------

TEST(JitExecMemory, MapsSealsRunsAndUnmaps) {
    if (!jit::ExecMemory::supported()) GTEST_SKIP() << "no native tier on this build";
    // mov eax, 42; ret — the smallest executable round trip.
    jit::Assembler a;
    a.mov_ri32(jit::Reg::rax, 42);
    a.ret();
    const std::vector<std::uint8_t> code = a.finish();

    jit::ExecMemory mem(code);
    ASSERT_NE(mem.entry(), nullptr);
    EXPECT_EQ(mem.code_size(), code.size());
    EXPECT_GE(mem.mapped_size(), mem.code_size());
    EXPECT_EQ(mem.mapped_size() % 4096, 0u);

    using Fn = std::uint32_t (*)();
    const auto fn = reinterpret_cast<Fn>(const_cast<void*>(mem.entry()));
    EXPECT_EQ(fn(), 42u);

    // Moves transfer ownership; the moved-from mapping must not double-free.
    jit::ExecMemory moved(std::move(mem));
    EXPECT_EQ(mem.entry(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(reinterpret_cast<Fn>(const_cast<void*>(moved.entry()))(), 42u);
}

TEST(JitExecMemory, RepeatedCompileFreeCyclesDoNotLeak) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // Exercised under the ASan/LSan CI pass: any leaked mapping or freed
    // code pointer shows up there.
    std::mt19937 rng{99};
    for (int i = 0; i < 64; ++i) {
        const Program prog = testgen::random_program(rng);
        const auto jitted = JitProgram::compile(decode_standalone(prog));
        const std::vector<std::byte> data(64, std::byte{0x11});
        (void)jitted->run(data, 64);
    }
}

TEST(JitExecMemory, RejectsEmptyCode) {
    if (!jit::ExecMemory::supported()) GTEST_SKIP() << "no native tier on this build";
    EXPECT_THROW(jit::ExecMemory{std::vector<std::uint8_t>{}}, std::runtime_error);
}

// ---- tier selection & fallback --------------------------------------------

TEST(JitTierSelect, ParseAcceptsJit) {
    EXPECT_EQ(parse_exec_tier("jit"), ExecTier::kJit);
    EXPECT_THROW(parse_exec_tier("JIT"), std::runtime_error);
    EXPECT_THROW(parse_exec_tier("native"), std::runtime_error);
}

TEST(JitTierSelect, EffectiveTierFallsBackToInterpreterWithoutNativeSupport) {
    EXPECT_EQ(effective_tier(ExecTier::kJit, true), ExecTier::kJit);
    EXPECT_EQ(effective_tier(ExecTier::kJit, false), ExecTier::kInterpreter);
    EXPECT_EQ(effective_tier(ExecTier::kInterpreter, false), ExecTier::kInterpreter);
    EXPECT_EQ(effective_tier(ExecTier::kInterpreter, true), ExecTier::kInterpreter);
}

TEST(JitTierSelect, CompileThrowsOnUnsupportedBuilds) {
    if (JitProgram::supported()) GTEST_SKIP() << "native tier available here";
    EXPECT_THROW(JitProgram::compile(DecodedProgram{}), std::runtime_error);
}

// ---- program cache ---------------------------------------------------------

Program unique_program(std::uint32_t tag) {
    return {stmt(BPF_LD | BPF_IMM, 0xCAFE0000u + tag), stmt(BPF_RET | BPF_A, 0)};
}

TEST(JitProgramCache, HitMissAndCompileCountsAreWinnerOnly) {
    const Program prog = unique_program(101);
    const CacheStats before = cache_stats();

    const CachedFilter first = cache_filter(prog, false);
    ASSERT_NE(first.decoded, nullptr);
    EXPECT_EQ(first.jit, nullptr);
    EXPECT_GT(first.decoded->id, 0u);

    const CachedFilter second = cache_filter(prog, false);
    EXPECT_EQ(second.decoded.get(), first.decoded.get());

    CacheStats after = cache_stats();
    EXPECT_EQ(after.lookups - before.lookups, 2u);
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 0u);

    if (!JitProgram::supported()) return;
    // A later jit-tier install upgrades the same entry: compiled once,
    // shared afterwards, same program id.
    const CachedFilter jit1 = cache_filter(prog, true);
    ASSERT_NE(jit1.jit, nullptr);
    EXPECT_EQ(jit1.decoded.get(), first.decoded.get());
    const CachedFilter jit2 = cache_filter(prog, true);
    EXPECT_EQ(jit2.jit.get(), jit1.jit.get());

    after = cache_stats();
    EXPECT_EQ(after.lookups - before.lookups, 4u);
    EXPECT_EQ(after.misses - before.misses, 1u);  // still the one decode
    EXPECT_EQ(after.hits - before.hits, 3u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 1u);

    const VmResult r = jit1.jit->run({}, 0);
    EXPECT_EQ(r.accept_len, 0xCAFE0065u);
}

TEST(JitProgramCache, JitRequestOnFreshProgramCompilesWithTheMiss) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const Program prog = unique_program(202);
    const CacheStats before = cache_stats();
    const CachedFilter cached = cache_filter(prog, true);
    ASSERT_NE(cached.jit, nullptr);
    ASSERT_NE(cached.decoded, nullptr);
    const CacheStats after = cache_stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 1u);
    EXPECT_EQ(after.hits - before.hits, 0u);
}

// ---- filter-expression memo --------------------------------------------------

TEST(FilterMemo, MatchesCompileFilterAndSharesOneProgramPerKey) {
    for (const std::string& expr :
         {std::string("udp"), std::string("tcp or udp"), harness::fig_6_5_filter_expression()}) {
        const auto full = compiled_filter(expr, 1515);
        const auto small = compiled_filter(expr, 96);
        ASSERT_NE(full, nullptr);
        ASSERT_NE(small, nullptr);
        EXPECT_EQ(*full, filter::compile_filter(expr, 1515)) << expr;
        EXPECT_EQ(*small, filter::compile_filter(expr, 96)) << expr;
        EXPECT_EQ(compiled_filter(expr, 1515).get(), full.get()) << expr;
        EXPECT_EQ(compiled_filter(expr, 96).get(), small.get()) << expr;
        EXPECT_NE(*full, *small) << expr;
    }
}

TEST(FilterMemo, BadExpressionThrowsOnEveryCall) {
    EXPECT_THROW(compiled_filter("ip and and", 1515), filter::FilterError);
    EXPECT_THROW(compiled_filter("ip and and", 1515), filter::FilterError);
}

TEST(FilterMemo, RacingCallersGetTheSameProgram) {
    constexpr int kThreads = 8;
    const std::string expr = "udp and port 4711 and not src port 4712";
    std::vector<const Program*> got(kThreads, nullptr);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            got[static_cast<std::size_t>(i)] = compiled_filter(expr, 1515).get();
        });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_NE(got[0], nullptr);
    for (const Program* p : got) EXPECT_EQ(p, got[0]);
    EXPECT_EQ(*got[0], filter::compile_filter(expr, 1515));
}

TEST(FilterMemo, EachSessionInstallStillCountsOneCacheLookup) {
    // The memo sits in front of the program cache, not in place of it: the
    // bpf_cache section of the metrics document must count what it did
    // before.  The interpreter tier verifies without the cache.
    harness::SutConfig cfg = harness::standard_sut("swan");
    cfg.filter_expression = harness::fig_6_5_filter_expression();
    cfg.app_count = 4;
    const bool jit_tier = effective_tier(exec_tier(), JitProgram::supported()) == ExecTier::kJit;
    sim::Simulator sim;
    const CacheStats before = cache_stats();
    {
        const harness::Sut sut{sim, cfg};
    }
    const CacheStats after = cache_stats();
    EXPECT_EQ(after.lookups - before.lookups, jit_tier ? 4u : 0u);
}

}  // namespace
}  // namespace capbench::bpf
