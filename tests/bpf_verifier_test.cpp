// Tests for the verifier pipeline (liveness, the fact table verify()
// builds, structured findings), the decoded form and its native
// execution, the program cache, and the attach-time gate in the capture
// stacks.  Ends with an interpreter-vs-jit property sweep over randomly
// generated valid programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/analysis/fact_table.hpp"
#include "capbench/bpf/analysis/liveness.hpp"
#include "capbench/bpf/decoded.hpp"
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

using analysis::FactTable;
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

// ---- fact table ---------------------------------------------------------------

TEST(FactTable, DominatingLoadProvesLaterLoadsInBounds) {
    // A successful word load at 0 proves 4 data bytes on every
    // continuation, so the byte load at 2 can never reject.
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_LD | BPF_B | BPF_ABS, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const FactTable facts = verify(prog).facts;
    EXPECT_FALSE(facts[0].safe_load);
    EXPECT_EQ(facts[1].min_data_len, 4u);
    EXPECT_TRUE(facts[1].safe_load);
}

TEST(FactTable, IdenticalRepeatLoadIsRedundant) {
    const Program prog{stmt(BPF_LD | BPF_B | BPF_ABS, 6), stmt(BPF_LD | BPF_B | BPF_ABS, 6),
                       stmt(BPF_RET | BPF_A, 0)};
    const FactTable facts = verify(prog).facts;
    EXPECT_FALSE(facts[0].redundant_load);
    EXPECT_TRUE(facts[1].redundant_load);
    EXPECT_TRUE(facts[1].safe_load);
}

TEST(FactTable, LenGuardProvesWireLengthButNeverDataBounds) {
    // jge len, 40 proves the wire length on the taken path (the reloaded
    // LEN returns at least 40) — but a truncated capture can hold fewer
    // data bytes than its wire length, so the load stays checked.
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
    EXPECT_EQ(result.facts[2].min_data_len, 0u);
    EXPECT_FALSE(result.facts[2].safe_load);
}

TEST(FactTable, JoinTakesTheMinimumProof) {
    // One arm proves 4 bytes, the other proves nothing extra; the join
    // keeps only what both arms guarantee.
    const Program prog{stmt(BPF_LD | BPF_B | BPF_ABS, 0),       // proves 1 byte
                       jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 0, 1),
                       stmt(BPF_LD | BPF_W | BPF_ABS, 0),       // proves 4 bytes
                       stmt(BPF_LD | BPF_B | BPF_ABS, 2),       // join target
                       stmt(BPF_RET | BPF_A, 0)};
    const FactTable facts = verify(prog).facts;
    // Insn 3 is reached with 4 proven bytes via insn 2 but only 1 via the
    // jump's false edge: min wins, the 3-byte-deep load stays checked.
    EXPECT_EQ(facts[3].min_data_len, 1u);
    EXPECT_FALSE(facts[3].safe_load);
}

TEST(FactTable, ConstantScratchRoundTripFolds) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 77), stmt(BPF_ST, 2),
                       stmt(BPF_LD | BPF_IMM, 0), stmt(BPF_LD | BPF_W | BPF_MEM, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const FactTable facts = verify(prog).facts;
    ASSERT_TRUE(facts[3].const_result);
    EXPECT_EQ(facts[3].const_value, 77u);
}

// ---- verifier -----------------------------------------------------------------

TEST(Verifier, CleanProgramHasFactSummaryAndNoErrors) {
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_LD | BPF_B | BPF_ABS, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const VerifyResult result = verify(prog);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.first_error(), nullptr);
    EXPECT_EQ(result.facts.size(), prog.size());
    bool saw_elidable = false;
    for (const auto& f : result.findings) {
        EXPECT_NE(f.severity, Severity::kError);
        if (f.message.find("elidable") != std::string::npos) saw_elidable = true;
    }
    EXPECT_TRUE(saw_elidable);
}

TEST(Verifier, ValidatorRejectionBecomesASingleErrorFinding) {
    const Program missing_ret{stmt(BPF_LD | BPF_IMM, 1)};
    const VerifyResult result = verify(missing_ret);
    EXPECT_FALSE(result.ok());
    ASSERT_NE(result.first_error(), nullptr);
    EXPECT_EQ(result.first_error()->severity, Severity::kError);
    EXPECT_TRUE(result.facts.empty());
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

// ---- decode + native execution ------------------------------------------------

/// A decoded program's result on the native tier, its only executor.
/// Callers check JitProgram::supported() first.
VmResult run_jit(const DecodedProgram& d, std::span<const std::byte> data) {
    return JitProgram::compile(d)->run(data);
}

TEST(Decode, ProvenLoadsBecomeUncheckedTokens) {
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_LD | BPF_B | BPF_ABS, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const DecodedProgram d = decode(prog, verify(prog).facts);
    EXPECT_EQ(d.insns[0].tok, Tok::kLdAbsW);
    EXPECT_EQ(d.insns[1].tok, Tok::kLdAbsBU);
    EXPECT_EQ(d.stats.packet_loads, 2u);
    EXPECT_EQ(d.stats.unchecked_loads, 1u);
}

TEST(Decode, ConstantScratchLoadFoldsToImmediate) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 77), stmt(BPF_ST, 2),
                       stmt(BPF_LD | BPF_IMM, 0), stmt(BPF_LD | BPF_W | BPF_MEM, 2),
                       stmt(BPF_RET | BPF_A, 0)};
    const DecodedProgram d = decode(prog, verify(prog).facts);
    EXPECT_EQ(d.insns[3].tok, Tok::kLdImm);
    EXPECT_EQ(d.insns[3].k, 77u);
    EXPECT_EQ(d.stats.folded_loads, 1u);
    if (JitProgram::supported()) {
        EXPECT_EQ(run_jit(d, {}).accept_len, 77u);
    }
}

TEST(Decode, OverShiftFoldsToZeroImmediate) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 0xFFFF), stmt(BPF_ALU | BPF_LSH | BPF_K, 33),
                       stmt(BPF_RET | BPF_A, 0)};
    const DecodedProgram d = decode(prog, verify(prog).facts);
    EXPECT_EQ(d.insns[1].tok, Tok::kLdImm);
    EXPECT_EQ(d.insns[1].k, 0u);
    if (JitProgram::supported()) {
        EXPECT_EQ(run_jit(d, {}).accept_len, 0u);
    }
}

TEST(Decode, JumpTargetsBecomeAbsolute) {
    const Program prog{jump(BPF_JMP | BPF_JA, 1, 0, 0), stmt(BPF_RET | BPF_K, 0),
                       stmt(BPF_RET | BPF_K, 42)};
    const DecodedProgram d = decode(prog, verify(prog).facts);
    EXPECT_EQ(d.insns[0].tok, Tok::kJa);
    EXPECT_EQ(d.insns[0].jt, 2u);
    if (JitProgram::supported()) {
        EXPECT_EQ(run_jit(d, {}).accept_len, 42u);
    }
}

TEST(Decode, AbortingLoadMatchesInterpreterOnJit) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_RET | BPF_K, 1)};
    const DecodedProgram d = decode(prog, verify(prog).facts);
    const auto data = bytes({1, 2});
    const VmResult interp = Vm::run(prog, data);
    const VmResult jit = run_jit(d, data);
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

TEST(ProgramCache, SharesOneDecodedProgramPerContent) {
    const Program prog{stmt(BPF_LD | BPF_B | BPF_ABS, 9), stmt(BPF_RET | BPF_A, 0)};
    const auto first = cache_decoded(prog);
    const auto again = cache_decoded(prog);
    EXPECT_EQ(first.get(), again.get());
    EXPECT_GT(first->id, 0u);

    const Program other{stmt(BPF_LD | BPF_B | BPF_ABS, 10), stmt(BPF_RET | BPF_A, 0)};
    const auto different = cache_decoded(other);
    EXPECT_NE(different.get(), first.get());
    EXPECT_NE(different->id, first->id);
    EXPECT_GE(cached_program_count(), 2u);
}

TEST(ProgramCache, RejectsVerifierFailingPrograms) {
    EXPECT_THROW(cache_decoded({stmt(BPF_LD | BPF_IMM, 1)}), std::invalid_argument);
}

TEST(ProgramCache, RejectedProgramCountsNoLookup) {
    // A rejected filter is neither a hit nor a miss, so it must not count
    // a lookup either: the metrics suite reports lookups == hits + misses
    // for the whole process.
    const CacheStats before = cache_stats();
    EXPECT_THROW(cache_filter({stmt(BPF_LD | BPF_IMM, 2)}, false), std::invalid_argument);
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
    const bpf::DecodedProgram* decoded = runner.decoded();
    const FilterRunner::Verdict udp_before = runner.run(udp, 1515);
    const FilterRunner::Verdict tcp_before = runner.run(tcp, 1515);
    ASSERT_TRUE(udp_before.accept);
    ASSERT_FALSE(tcp_before.accept);

    EXPECT_THROW(runner.install(invalid_program()), std::invalid_argument);
    EXPECT_TRUE(runner.has_filter());
    // Same decoded program (and so the same native code and program id),
    // not a silent fall-back to the interpreter.
    EXPECT_EQ(runner.decoded(), decoded);
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
        const auto jitted = JitProgram::compile(decode(prog, verify(prog).facts));

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
