// Tests for the verifier pipeline (liveness, structured findings), the
// jit's lowering checked against the interpreter, the program cache, and
// the attach-time gate in the capture stacks.  Ends with an interpreter-vs-jit
// property sweep over randomly generated valid programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/analysis/liveness.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/validator.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/capture/bsd_bpf.hpp"
#include "capbench/capture/linux_socket.hpp"
#include "capbench/capture/mmap_ring.hpp"
#include "capbench/obs/observer.hpp"

#include "bpf_random_program.hpp"

namespace capbench::bpf {
namespace {

using analysis::kLiveA;
using analysis::kLiveX;
using analysis::Liveness;
using analysis::Severity;

std::vector<std::byte> bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (const int v : values) out.push_back(static_cast<std::byte>(v));
    return out;
}

// ---- liveness -----------------------------------------------------------------

TEST(Liveness, FlagsOverwrittenAccumulatorLoadAsDead) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 1), stmt(BPF_LD | BPF_IMM, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const Liveness live = Liveness::build(prog);
    EXPECT_TRUE(live.dead_store[0]);
    EXPECT_FALSE(live.dead_store[1]);
    EXPECT_EQ(live.live_out[1] & kLiveA, kLiveA);
    EXPECT_EQ(live.live_out[0] & kLiveA, 0u);
}

TEST(Liveness, FlagsShadowedScratchStoreAsDead) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 1),
                       stmt(BPF_ST, 3),  // shadowed before any read
                       stmt(BPF_ST, 3),
                       stmt(BPF_LD | BPF_W | BPF_MEM, 3),
                       stmt(BPF_RET | BPF_A, 0)};
    const Liveness live = Liveness::build(prog);
    EXPECT_TRUE(live.dead_store[1]);
    EXPECT_FALSE(live.dead_store[2]);
    EXPECT_EQ(live.live_out[2] & analysis::live_mem_bit(3), analysis::live_mem_bit(3));
}

TEST(Liveness, PacketLoadsAndDivisionsAreNeverDead) {
    // The load's result is overwritten unread, but the load itself can
    // reject the packet — it must survive.
    const Program load{stmt(BPF_LD | BPF_B | BPF_ABS, 0), stmt(BPF_LD | BPF_IMM, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_FALSE(Liveness::build(load).dead_store[0]);
    // Same for a division by X, which can fault.
    const Program divx{stmt(BPF_LDX | BPF_W | BPF_IMM, 2), stmt(BPF_LD | BPF_IMM, 8),
                       stmt(BPF_ALU | BPF_DIV | BPF_X, 0), stmt(BPF_LD | BPF_IMM, 1),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_FALSE(Liveness::build(divx).dead_store[2]);
}

// ---- verifier -----------------------------------------------------------------

TEST(Verifier, CleanProgramHasNoErrors) {
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_LD | BPF_B | BPF_ABS, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const VerifyResult result = verify(prog);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.first_error(), nullptr);
    for (const auto& f : result.findings) EXPECT_NE(f.severity, Severity::kError);
}

TEST(Verifier, LenGuardProvesWireLengthButNeverDataBounds) {
    // jge len, 40 proves the wire length on the taken path (the reloaded
    // LEN returns at least 40) — but a truncated capture can hold fewer
    // data bytes than its wire length, so the guarded load still faults
    // on one, on both tiers.
    const Program prog{stmt(BPF_LD | BPF_W | BPF_LEN, 0),
                       jump(BPF_JMP | BPF_JGE | BPF_K, 40, 0, 3),
                       stmt(BPF_LD | BPF_B | BPF_ABS, 20),  // guarded by LEN only
                       stmt(BPF_LD | BPF_W | BPF_LEN, 0),
                       stmt(BPF_RET | BPF_A, 0),
                       stmt(BPF_RET | BPF_K, 0)};
    const VerifyResult result = verify(prog);
    EXPECT_TRUE(std::any_of(result.findings.begin(), result.findings.end(),
                            [](const analysis::Finding& f) {
                                return f.insn == 4 &&
                                       f.message.find("returns A in [40, ") != std::string::npos;
                            }));
    const std::vector<std::byte> truncated(10);
    const VmResult interp = Vm::run(prog, truncated, 60);
    EXPECT_TRUE(interp.aborted);
    EXPECT_EQ(interp.insns_executed, 3u);
    if (JitProgram::supported()) {
        const VmResult jit = JitProgram::compile(prog)->run(truncated, 60);
        EXPECT_TRUE(jit.aborted);
        EXPECT_EQ(jit.insns_executed, interp.insns_executed);
    }
}

TEST(Verifier, ValidatorRejectionBecomesASingleErrorFinding) {
    const Program missing_ret{stmt(BPF_LD | BPF_IMM, 1)};
    const VerifyResult result = verify(missing_ret);
    EXPECT_FALSE(result.ok());
    ASSERT_NE(result.first_error(), nullptr);
    EXPECT_EQ(result.first_error()->severity, Severity::kError);
    EXPECT_EQ(result.findings.size(), 1u);
}

TEST(Verifier, UnreachableCodeIsAWarningNotARejection) {
    const Program prog{jump(BPF_JMP | BPF_JA, 1, 0, 0), stmt(BPF_LD | BPF_IMM, 1),
                       stmt(BPF_RET | BPF_K, 1)};
    const VerifyResult result = verify(prog);
    EXPECT_TRUE(result.ok());
    bool saw_unreachable = false;
    for (const auto& f : result.findings)
        if (f.severity == Severity::kWarning &&
            f.message.find("unreachable") != std::string::npos)
            saw_unreachable = true;
    EXPECT_TRUE(saw_unreachable);
}

TEST(Verifier, FilterThatFaultsOnEveryPathIsAWarningNotARejection) {
    // Every path through ether[70000] reaches a load that cannot be in
    // bounds, so no RET ever runs; a RET is still structurally reachable,
    // and the filter is legal: it rejects every packet.  The ip-guarded
    // form has a path to ret #0 and draws no such warning.
    const auto has = [](const VerifyResult& r, Severity sev, const std::string& text) {
        return std::any_of(r.findings.begin(), r.findings.end(), [&](const auto& f) {
            return f.severity == sev && f.message.find(text) != std::string::npos;
        });
    };
    const VerifyResult faulting = verify(filter::compile_filter("ether[70000] = 1"));
    EXPECT_TRUE(faulting.ok()) << analysis::to_string(*faulting.first_error());
    EXPECT_TRUE(has(faulting, Severity::kWarning, "every path faults"));
    EXPECT_FALSE(has(faulting, Severity::kError, "no reachable return"));

    const VerifyResult guarded = verify(filter::compile_filter("ip and ether[70000] = 1"));
    EXPECT_TRUE(guarded.ok());
    EXPECT_FALSE(has(guarded, Severity::kWarning, "every path faults"));
    EXPECT_TRUE(has(guarded, Severity::kWarning, "never accept"));
}

TEST(Verifier, FindingsAreSortedErrorsFirst) {
    const VerifyResult result = verify({});
    ASSERT_FALSE(result.findings.empty());
    for (std::size_t i = 1; i < result.findings.size(); ++i)
        EXPECT_LE(static_cast<int>(result.findings[i - 1].severity),
                  static_cast<int>(result.findings[i].severity));
}

TEST(Verifier, ThrowCarriesTheStructuredFinding) {
    try {
        verify_or_throw({});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("BPF verifier rejected filter"),
                  std::string::npos);
    }
    EXPECT_NO_THROW(verify_or_throw(accept_all()));
}

// ---- aborted flag (interpreter) -----------------------------------------------

TEST(VmAbort, OutOfBoundsLoadSetsAborted) {
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_RET | BPF_K, 1)};
    const VmResult r = Vm::run(prog, bytes({1, 2}));
    EXPECT_EQ(r.accept_len, 0u);
    EXPECT_TRUE(r.aborted);
}

TEST(VmAbort, DivisionByZeroSetsAborted) {
    const Program prog{stmt(BPF_LDX | BPF_W | BPF_IMM, 0), stmt(BPF_LD | BPF_IMM, 7),
                       stmt(BPF_ALU | BPF_DIV | BPF_X, 0), stmt(BPF_RET | BPF_K, 1)};
    EXPECT_TRUE(Vm::run(prog, {}).aborted);
}

TEST(VmAbort, OrdinaryRejectIsNotAborted) {
    const VmResult r = Vm::run(reject_all(), bytes({1}));
    EXPECT_EQ(r.accept_len, 0u);
    EXPECT_FALSE(r.aborted);
}

// ---- jit lowering vs. the interpreter ------------------------------------------

/// Runs `prog` on both tiers and expects the same result; returns the
/// interpreter's.  Without a native tier only the interpreter runs.
VmResult run_both(const Program& prog, std::span<const std::byte> data) {
    const VmResult interp = Vm::run(prog, data);
    if (JitProgram::supported()) {
        const VmResult jit = JitProgram::compile(prog)->run(data);
        EXPECT_EQ(jit.accept_len, interp.accept_len) << disassemble(prog);
        EXPECT_EQ(jit.aborted, interp.aborted) << disassemble(prog);
        EXPECT_EQ(jit.insns_executed, interp.insns_executed) << disassemble(prog);
    }
    return interp;
}

TEST(JitLowering, PacketLoadsKeepTheirBoundsChecks) {
    // The second load is proven in bounds by the first, yet every packet
    // load lowers to its one checked form: on every capture length, each
    // tier faults at the same instruction.
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_LD | BPF_B | BPF_ABS, 2),
                       stmt(BPF_LDX | BPF_B | BPF_MSH, 0), stmt(BPF_LD | BPF_H | BPF_IND, 0),
                       stmt(BPF_RET | BPF_A, 0)};
    for (std::size_t n = 0; n <= 8; ++n) {
        const std::vector<std::byte> data(n, std::byte{0x01});  // MSH reads X = 4
        const VmResult r = run_both(prog, data);
        EXPECT_EQ(r.aborted, n < 6) << "capture length " << n;
    }
}

TEST(JitLowering, ScratchLoadStaysAScratchLoad) {
    // Each scratch load reads its own slot, not a neighbour holding a
    // different value, on every slot from the first to the last.
    for (const std::uint32_t slot : {0u, 2u, 15u}) {
        const std::uint32_t other = slot ^ 1u;
        const Program prog{stmt(BPF_LD | BPF_IMM, 77), stmt(BPF_ST, slot),
                           stmt(BPF_LDX | BPF_W | BPF_IMM, 11), stmt(BPF_STX, other),
                           stmt(BPF_LD | BPF_IMM, 0), stmt(BPF_LD | BPF_W | BPF_MEM, slot),
                           stmt(BPF_RET | BPF_A, 0)};
        EXPECT_EQ(run_both(prog, {}).accept_len, 77u) << "slot " << slot;
    }
}

TEST(JitLowering, ScratchRoundTripReturnsTheStoredValue) {
    // Stores 77 to M[2], clobbers A, then loads M[2] back: both tiers
    // return what the program stored, not the clobbered A.
    const Program prog{stmt(BPF_LD | BPF_IMM, 77), stmt(BPF_ST, 2), stmt(BPF_LD | BPF_IMM, 0),
                       stmt(BPF_LD | BPF_W | BPF_MEM, 2), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(run_both(prog, {}).accept_len, 77u);
}

TEST(JitLowering, OverShiftFoldsToZeroImmediate) {
    // A constant shift by 32 or more yields 0 on both tiers; 31 still
    // shifts.
    for (const std::uint16_t op : {BPF_LSH, BPF_RSH}) {
        for (const std::uint32_t k : {31u, 32u, 33u, 0xFFFFFFFFu}) {
            const Program prog{stmt(BPF_LD | BPF_IMM, 0x8000FFFFu),
                               stmt(BPF_ALU | op | BPF_K, k), stmt(BPF_RET | BPF_A, 0)};
            const std::uint32_t expect = k >= 32 ? 0u : (op == BPF_LSH ? 0x80000000u : 1u);
            EXPECT_EQ(run_both(prog, {}).accept_len, expect) << disassemble(prog);
        }
    }
}

TEST(JitLowering, JumpTargetsBecomeAbsolute) {
    // Relative offsets from three different pcs all land on the right
    // RET: ja +1, then a jeq whose taken offset skips two instructions.
    const Program prog{jump(BPF_JMP | BPF_JA, 1, 0, 0), stmt(BPF_RET | BPF_K, 0),
                       jump(BPF_JMP | BPF_JEQ | BPF_K, 0, 2, 0), stmt(BPF_RET | BPF_K, 1),
                       stmt(BPF_RET | BPF_K, 2), stmt(BPF_RET | BPF_K, 42)};
    const VmResult r = run_both(prog, {});
    EXPECT_EQ(r.accept_len, 42u);
    EXPECT_EQ(r.insns_executed, 3u);
}

TEST(JitLowering, AbortingLoadMatchesInterpreterOnJit) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_RET | BPF_K, 1)};
    const auto data = bytes({1, 2});
    const VmResult interp = Vm::run(prog, data);
    const VmResult jit = JitProgram::compile(prog)->run(data);
    EXPECT_TRUE(jit.aborted);
    EXPECT_EQ(jit.accept_len, interp.accept_len);
    EXPECT_EQ(jit.insns_executed, interp.insns_executed);
}

TEST(ExecTierKnob, ParsesStrictly) {
    EXPECT_EQ(parse_exec_tier("interpreter"), ExecTier::kInterpreter);
    EXPECT_EQ(parse_exec_tier("jit"), ExecTier::kJit);
    EXPECT_THROW(parse_exec_tier("native"), std::runtime_error);
    EXPECT_THROW(parse_exec_tier(""), std::runtime_error);
}

TEST(ExecTierKnob, RejectsThreadedNamingTheAcceptedValues) {
    try {
        (void)parse_exec_tier("threaded");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'interpreter'"), std::string::npos) << what;
        EXPECT_NE(what.find("'jit'"), std::string::npos) << what;
        EXPECT_NE(what.find("'threaded'"), std::string::npos) << what;  // echoes the input
    }
}

// ---- program cache ------------------------------------------------------------

TEST(ProgramCache, SharesOneJitProgramPerContent) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // A new program adds one miss and one compile; a repeat adds one hit
    // and returns the same JitProgram.
    const Program prog{stmt(BPF_LD | BPF_B | BPF_ABS, 9), stmt(BPF_RET | BPF_A, 0)};
    CacheStats before = cache_stats();
    const auto first = cache_filter(prog);
    CacheStats after = cache_stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 1u);
    EXPECT_EQ(after.hits - before.hits, 0u);

    before = after;
    const auto again = cache_filter(prog);
    after = cache_stats();
    EXPECT_EQ(again.get(), first.get());
    EXPECT_EQ(after.misses - before.misses, 0u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 0u);
    EXPECT_EQ(after.hits - before.hits, 1u);

    const Program other{stmt(BPF_LD | BPF_B | BPF_ABS, 10), stmt(BPF_RET | BPF_A, 0)};
    before = after;
    const auto different = cache_filter(other);
    after = cache_stats();
    EXPECT_NE(different.get(), first.get());
    EXPECT_EQ(after.misses - before.misses, 1u);
}

TEST(ProgramCache, RejectsVerifierFailingPrograms) {
    EXPECT_THROW(cache_filter({stmt(BPF_LD | BPF_IMM, 1)}), std::invalid_argument);
}

TEST(ProgramCache, RejectedProgramCountsNoLookup) {
    // A rejected filter is neither a hit nor a miss, so it must not count
    // a lookup either: the metrics suite reports lookups == hits + misses
    // for the whole process.
    const CacheStats before = cache_stats();
    EXPECT_THROW(cache_filter({stmt(BPF_LD | BPF_IMM, 2)}), std::invalid_argument);
    const CacheStats after = cache_stats();
    EXPECT_EQ(after.lookups, before.lookups);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.lookups, after.hits + after.misses);
}

}  // namespace
}  // namespace capbench::bpf

// ---- the attach gate in the capture stacks ------------------------------------

namespace capbench::capture {
namespace {

using hostsim::ArchSpec;
using hostsim::Machine;
using hostsim::MachineSpec;

struct Fixture {
    sim::Simulator sim;
    Machine machine{sim, MachineSpec{ArchSpec::amd_opteron(), 2, false}, {}};
};

bpf::Program invalid_program() {
    return {bpf::stmt(bpf::BPF_LD | bpf::BPF_IMM, 1)};
}

/// Verifier-clean but guaranteed to fault at runtime: X = wire length,
/// then an indirect load at [x+0] — one past the last byte even of an
/// untruncated capture.
bpf::Program always_aborting_program() {
    return {bpf::stmt(bpf::BPF_LD | bpf::BPF_W | bpf::BPF_LEN, 0),
            bpf::Insn{bpf::BPF_MISC | bpf::BPF_TAX, 0, 0, 0},
            bpf::stmt(bpf::BPF_LD | bpf::BPF_B | bpf::BPF_IND, 0),
            bpf::stmt(bpf::BPF_RET | bpf::BPF_K, 1)};
}

TEST(AttachGate, AllThreeStacksRejectVerifierFailingPrograms) {
    Fixture f;
    BsdBpfDev bsd{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515, nullptr};
    MmapRing ring{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515, 2048};
    for (StackEndpoint* endpoint : {static_cast<StackEndpoint*>(&bsd),
                                    static_cast<StackEndpoint*>(&sock),
                                    static_cast<StackEndpoint*>(&ring)}) {
        try {
            endpoint->install_filter(invalid_program());
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("BPF verifier rejected filter"),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find("error"), std::string::npos);
        }
    }
}

TEST(AttachGate, RejectedInstallKeepsThePreviousFilter) {
    const auto ip_frame = [](std::uint8_t proto) {
        std::vector<std::byte> frame(64);
        frame[12] = std::byte{0x08};
        frame[14] = std::byte{0x45};
        frame[23] = std::byte{proto};
        return net::Packet{1, std::move(frame), sim::SimTime{}};
    };
    const net::Packet udp = ip_frame(17);
    const net::Packet tcp = ip_frame(6);

    FilterRunner runner;
    runner.install(bpf::filter::compile_filter("udp"));
    const std::size_t jitted_insns = runner.jitted_insns();
    const FilterRunner::Verdict udp_before = runner.run(udp, 1515);
    const FilterRunner::Verdict tcp_before = runner.run(tcp, 1515);
    ASSERT_TRUE(udp_before.accept);
    ASSERT_FALSE(tcp_before.accept);

    EXPECT_THROW(runner.install(invalid_program()), std::invalid_argument);
    EXPECT_TRUE(runner.has_filter());
    // Still the same native program under the jit tier, not a silent
    // fall-back to the interpreter.
    EXPECT_EQ(runner.jitted_insns(), jitted_insns);
    for (const auto& [packet, before] : {std::pair{&udp, udp_before}, std::pair{&tcp, tcp_before}}) {
        const FilterRunner::Verdict after = runner.run(*packet, 1515);
        EXPECT_EQ(after.accept, before.accept);
        EXPECT_EQ(after.caplen, before.caplen);
        EXPECT_EQ(after.insns, before.insns);
        EXPECT_FALSE(after.aborted);
    }
}

TEST(AttachGate, AbortingFilterCountsFilterAbortsInsideDroppedFilter) {
    // The second filter faults on every path and verify() proves it: a
    // warning, not a rejection, so it attaches like the first.
    for (const bpf::Program& prog :
         {always_aborting_program(), bpf::filter::compile_filter("ether[70000] = 1")}) {
        Fixture f;
        BsdBpfDev bsd{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
        LinuxPacketSocket sock{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515, nullptr};
        MmapRing ring{f.machine, OsSpec::linux_2_6_11(), 1 << 20, 1515, 2048};
        for (PacketTap* tap : {static_cast<PacketTap*>(&bsd), static_cast<PacketTap*>(&sock),
                               static_cast<PacketTap*>(&ring)}) {
            auto* endpoint = dynamic_cast<StackEndpoint*>(tap);
            ASSERT_NE(endpoint, nullptr);
            ASSERT_NO_THROW(endpoint->install_filter(prog)) << bpf::disassemble(prog);
            for (std::uint64_t id = 1; id <= 3; ++id) {
                const auto p = std::make_shared<net::Packet>(id, 600, sim::SimTime{});
                tap->plan(p);
                tap->commit(CaptureRecord::of(p, false), 0, 0);
            }
            // Aborts are counted inside dropped_filter, so the drop
            // identity still closes.
            const CaptureStats& st = endpoint->stats();
            EXPECT_EQ(st.kernel_seen, 3u);
            EXPECT_EQ(st.accepted, 0u);
            EXPECT_EQ(st.dropped_filter, 3u);
            EXPECT_EQ(st.filter_aborts, 3u);
        }
    }
}

TEST(AttachGate, AbortCounterReachesTheObsRegistry) {
    // The registry views the endpoint's own count: no second tally.
    Fixture f;
    BsdBpfDev bsd{f.machine, OsSpec::freebsd_5_4(), 1 << 20, 1515};
    obs::Observer observer;
    (void)observer.add_sut("swan", {&bsd.stats()});
    bsd.install_filter(always_aborting_program());
    for (std::uint64_t id = 1; id <= 2; ++id) {
        const auto p = std::make_shared<net::Packet>(id, 600, sim::SimTime{});
        bsd.plan(p);
        bsd.commit(CaptureRecord::of(p, false), 0, 0);
    }
    const auto snap = observer.registry().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].first, "capture.swan.app0.filter_aborts");
    EXPECT_EQ(snap[0].second, 2u);
}

}  // namespace
}  // namespace capbench::capture

// ---- interpreter vs. jit property sweep ---------------------------------------

namespace capbench::bpf {
namespace {

using testgen::random_program;

// JitTierEquivalence (bpf_jit_test.cpp) sweeps seed 20260809; this seed
// adds a second thousand programs rather than repeating those inputs.
TEST(TierEquivalence, ThousandRandomProgramsMatchByteForByte) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    std::mt19937 rng{20261016};
    int programs = 0;
    int aborts_seen = 0;
    while (programs < 1000) {
        const Program prog = random_program(rng);
        ASSERT_EQ(validate(prog), std::nullopt) << disassemble(prog);
        ++programs;
        const auto jitted = JitProgram::compile(prog);

        for (int trial = 0; trial < 4; ++trial) {
            std::vector<std::byte> data(rng() % 100);
            for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
            // wire_len >= data.size(): truncated captures included.
            const auto wire =
                static_cast<std::uint32_t>(data.size() + rng() % 64);
            const VmResult interp = Vm::run(prog, data, wire);
            const VmResult jit = jitted->run(data, wire);
            ASSERT_EQ(interp.accept_len, jit.accept_len)
                << disassemble(prog) << "data size " << data.size() << " wire " << wire;
            ASSERT_EQ(interp.aborted, jit.aborted) << disassemble(prog);
            ASSERT_EQ(interp.insns_executed, jit.insns_executed) << disassemble(prog);
            if (interp.aborted) ++aborts_seen;
        }
    }
    // The generator must actually exercise the abort paths (OOB loads,
    // div-by-zero) for the equivalence claim to mean anything.
    EXPECT_GT(aborts_seen, 0);
}

}  // namespace
}  // namespace capbench::bpf
