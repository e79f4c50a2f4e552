// Pre-decoded BPF programs: the input of the native code generator.
//
// decode() runs once at attach time and pays everything the interpreter
// pays per packet: opcode-field masking collapses into one dense token,
// jump offsets become absolute targets, and the verifier's FactTable picks
// the specialized token per site — unchecked load variants where a
// dominating load already proves the bytes present, immediate loads where
// the value is a proven constant, exact shifts where the count is known.
// The token stream is what the native code generator (jit/) consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capbench/bpf/analysis/fact_table.hpp"
#include "capbench/bpf/insn.hpp"

namespace capbench::bpf {

enum class Tok : std::uint8_t {
    kLdImm,   // A = k
    kLdLen,   // A = wire_len
    kLdMem,   // A = M[k]          (k validated < kMemWords)
    kLdAbsW, kLdAbsH, kLdAbsB,     // checked absolute packet loads
    kLdAbsWU, kLdAbsHU, kLdAbsBU,  // unchecked: fact table proves in bounds
    kLdIndW, kLdIndH, kLdIndB,     // checked indirect packet loads
    kLdIndWU, kLdIndHU, kLdIndBU,
    kLdxImm,  // X = k
    kLdxLen,  // X = wire_len
    kLdxMem,  // X = M[k]
    kLdxMsh,  // X = 4 * (pkt[k] & 0x0F), checked
    kLdxMshU,
    kSt,      // M[k] = A
    kStx,     // M[k] = X
    kAddK, kSubK, kMulK, kDivK, kOrK, kAndK, kLshK, kRshK,
    kAddX, kSubX, kMulX, kDivX, kOrX, kAndX, kLshX, kRshX,
    kNeg,
    kJa,                            // pc = jt
    kJeqK, kJgtK, kJgeK, kJsetK,    // pc = cond ? jt : jf (absolute)
    kJeqX, kJgtX, kJgeX, kJsetX,
    kRetK,    // accept_len = k
    kRetA,    // accept_len = A
    kTax, kTxa,
    kCount_,  // sentinel, keeps the dispatch table in sync
};

/// DecodedInsn::flags bit: the liveness pass proved this scratch store is
/// never read.  The JIT emits no body but still counts it so
/// insns_executed stays byte-identical to the interpreter.
inline constexpr std::uint8_t kDecodedDeadStore = 1u << 0;

struct DecodedInsn {
    Tok tok = Tok::kRetK;
    std::uint8_t flags = 0;
    std::uint32_t k = 0;   // operand / immediate
    std::uint32_t jt = 0;  // absolute taken target (and the kJa target)
    std::uint32_t jf = 0;  // absolute fallthrough target
};

struct DecodeStats {
    std::uint32_t packet_loads = 0;     // ABS/IND/MSH sites in the source
    std::uint32_t unchecked_loads = 0;  // sites decoded without a bounds check
    std::uint32_t folded_loads = 0;     // loads decoded as immediates
    std::uint32_t dead_stores = 0;      // stores flagged kDecodedDeadStore
};

struct DecodedProgram {
    std::vector<DecodedInsn> insns;
    DecodeStats stats;
    /// Program-cache identity (monotonic, process-wide); 0 when the
    /// program was decoded directly rather than through the cache.
    std::uint64_t id = 0;
};

/// `prog` must have passed the verifier; `facts` must come from the same
/// program (verify(prog).facts or FactTable::build(prog)).
DecodedProgram decode(const Program& prog, const analysis::FactTable& facts);

/// Which tier FilterRunner executes.  Read once per process from
/// CAPBENCH_BPF_TIER ("jit", the default, or "interpreter", the checked
/// reference tier); both produce bit-identical verdicts, so figures are
/// unaffected.
enum class ExecTier { kInterpreter, kJit };
ExecTier exec_tier();
/// Strict parse; throws std::runtime_error on anything else.
ExecTier parse_exec_tier(const std::string& value);

/// Portable fallback policy: a jit request downgrades to the interpreter
/// on builds that cannot emit native code (JitProgram::supported() false).
/// Pure so the non-x86-64 path is unit-testable everywhere.
constexpr ExecTier effective_tier(ExecTier requested, bool jit_supported) {
    return jit_supported ? requested : ExecTier::kInterpreter;
}

}  // namespace capbench::bpf
