// Native BPF execution: verified classic BPF lowered to x86-64 machine code,
// one instruction at a time, straight from `bpf::Program`.
//
// The generated function is the BESS `bpf_filter_func_t` shape — one call
// per packet, no interpreter loop — with the whole VmResult packed into
// the return register:
//
//   bits  0..31  accept_len
//   bits 32..47  insns_executed (forward-only jumps bound it by kMaxInsns)
//   bit  48      aborted
//
// Abort semantics (div-by-zero, out-of-bounds checked load, falling off
// the end) and the executed-instruction count are byte-identical to the
// interpreter: the count register is flushed to the exact value before
// every faultable check, counting the faulting instruction itself, just as
// the interpreter counts an instruction before executing it.  Every packet
// load is bounds-checked against the captured length, exactly as the
// interpreter checks it, so truncated captures fault at the same
// instruction on both tiers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/jit/exec_memory.hpp"
#include "capbench/bpf/vm.hpp"

namespace capbench::bpf {

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

/// Native entry point (SysV x86-64).
using JitFn = std::uint64_t (*)(const std::byte* data, std::uint32_t data_len,
                                std::uint32_t wire_len);

namespace jit {
/// Lowers `prog` to machine code, one classic instruction at a time.  Pure
/// byte generation — runs (and is unit-tested) on every host; only
/// executing needs x86-64.  Throws std::logic_error for an instruction
/// with no lowering: an opcode the validator rejects, a scratch index
/// >= kMemWords or a division by the constant 0.
std::vector<std::uint8_t> compile_to_bytes(const Program& prog);
}  // namespace jit

class JitProgram {
public:
    /// True when this build can emit and execute native code.
    static bool supported() { return jit::ExecMemory::supported(); }

    /// Compiles to an RX mapping.  Throws std::runtime_error when
    /// !supported() or the mapping fails.  `prog` must have passed the
    /// verifier.
    static std::shared_ptr<const JitProgram> compile(const Program& prog);

    [[nodiscard]] VmResult run(std::span<const std::byte> data,
                               std::uint32_t wire_len) const {
        const std::uint64_t packed =
            fn_(data.data(), static_cast<std::uint32_t>(data.size()), wire_len);
        VmResult r;
        r.accept_len = static_cast<std::uint32_t>(packed);
        r.insns_executed = static_cast<std::uint32_t>((packed >> 32) & 0xFFFFu);
        r.aborted = (packed >> 48) != 0;
        return r;
    }

    [[nodiscard]] VmResult run(std::span<const std::byte> data) const {
        return run(data, static_cast<std::uint32_t>(data.size()));
    }

    [[nodiscard]] std::size_t code_size() const { return mem_.code_size(); }
    [[nodiscard]] std::size_t mapped_size() const { return mem_.mapped_size(); }
    [[nodiscard]] JitFn entry() const { return fn_; }

private:
    explicit JitProgram(jit::ExecMemory mem)
        : mem_(std::move(mem)),
          fn_(reinterpret_cast<JitFn>(const_cast<void*>(mem_.entry()))) {}

    jit::ExecMemory mem_;
    JitFn fn_;
};

}  // namespace capbench::bpf
