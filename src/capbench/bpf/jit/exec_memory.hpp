// Owning wrapper for a page of executable code, with a strict W^X
// lifecycle: the mapping is created readable+writable, the code bytes are
// copied in, and the protection is flipped to read+execute before the
// entry point ever escapes — the mapping is never writable and executable
// at the same time.  Destroyed with munmap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

// The JIT needs an x86-64 target and POSIX mmap/mprotect.  Other
// builds keep the full class compiling (supported() false, constructor
// throws) so callers fall back without #ifdefs of their own.
#if defined(__x86_64__) && !defined(_WIN32) && \
    (defined(__unix__) || defined(__linux__) || defined(__APPLE__))
#define CAPBENCH_BPF_JIT_X86_64 1
#else
#define CAPBENCH_BPF_JIT_X86_64 0
#endif

namespace capbench::bpf::jit {

class ExecMemory {
public:
    /// True when this build can map and execute generated code.
    static bool supported();

    ExecMemory() = default;
    /// Maps RW, copies `code`, seals to RX.  Throws std::runtime_error on
    /// unsupported builds, empty code, or mmap/mprotect failure.
    explicit ExecMemory(const std::vector<std::uint8_t>& code);
    ~ExecMemory();

    ExecMemory(const ExecMemory&) = delete;
    ExecMemory& operator=(const ExecMemory&) = delete;
    ExecMemory(ExecMemory&& other) noexcept;

    /// Start of the sealed (read+execute) code; null when default-built.
    [[nodiscard]] const void* entry() const { return mem_; }
    /// Bytes of emitted code.
    [[nodiscard]] std::size_t code_size() const { return code_size_; }
    /// Bytes actually mapped (code_size rounded up to whole pages).
    [[nodiscard]] std::size_t mapped_size() const { return mapped_size_; }

private:
    void* mem_ = nullptr;
    std::size_t code_size_ = 0;
    std::size_t mapped_size_ = 0;
};

}  // namespace capbench::bpf::jit
