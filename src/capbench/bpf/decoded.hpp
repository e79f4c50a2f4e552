// Pre-decoded BPF programs: the input of the native code generator.
//
// decode() runs once at attach time and pays everything the interpreter
// pays per packet: opcode-field masking collapses into one dense token and
// jump offsets become absolute targets.  The decode is 1:1 and every
// packet load keeps its bounds check; the one rewrite is a constant
// over-shift (k >= 32), which always yields 0 and decodes as an immediate.
// The token stream is what the native code generator (jit/) consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capbench/bpf/insn.hpp"

namespace capbench::bpf {

enum class Tok : std::uint8_t {
    kLdImm,   // A = k
    kLdLen,   // A = wire_len
    kLdMem,   // A = M[k]          (k validated < kMemWords)
    kLdAbsW, kLdAbsH, kLdAbsB,  // absolute packet loads
    kLdIndW, kLdIndH, kLdIndB,  // indirect packet loads
    kLdxImm,  // X = k
    kLdxLen,  // X = wire_len
    kLdxMem,  // X = M[k]
    kLdxMsh,  // X = 4 * (pkt[k] & 0x0F)
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
    kCount_,  // sentinel; decode() never emits it
};

struct DecodedInsn {
    Tok tok = Tok::kRetK;
    std::uint32_t k = 0;   // operand / immediate
    std::uint32_t jt = 0;  // absolute taken target (and the kJa target)
    std::uint32_t jf = 0;  // absolute fallthrough target
};

struct DecodedProgram {
    std::vector<DecodedInsn> insns;
    /// Program-cache identity (monotonic, process-wide); 0 when the
    /// program was decoded directly rather than through the cache.
    std::uint64_t id = 0;
};

/// `prog` must have passed the verifier.
DecodedProgram decode(const Program& prog);

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
