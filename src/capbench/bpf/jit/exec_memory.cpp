#include "capbench/bpf/jit/exec_memory.hpp"

#include <stdexcept>
#include <utility>

#if CAPBENCH_BPF_JIT_X86_64
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#endif

namespace capbench::bpf::jit {

bool ExecMemory::supported() { return CAPBENCH_BPF_JIT_X86_64 != 0; }

#if CAPBENCH_BPF_JIT_X86_64

ExecMemory::ExecMemory(const std::vector<std::uint8_t>& code) {
    if (code.empty()) throw std::runtime_error("ExecMemory: empty code");
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t rounded = (code.size() + page - 1) / page * page;
    void* mem = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::runtime_error("ExecMemory: mmap failed");
    std::memcpy(mem, code.data(), code.size());
    if (::mprotect(mem, rounded, PROT_READ | PROT_EXEC) != 0) {
        ::munmap(mem, rounded);
        throw std::runtime_error("ExecMemory: mprotect(PROT_READ|PROT_EXEC) failed");
    }
    mem_ = mem;
    code_size_ = code.size();
    mapped_size_ = rounded;
}

ExecMemory::~ExecMemory() {
    if (mem_ != nullptr) ::munmap(mem_, mapped_size_);
}

#else  // !CAPBENCH_BPF_JIT_X86_64

ExecMemory::ExecMemory(const std::vector<std::uint8_t>& code) {
    (void)code;
    throw std::runtime_error("ExecMemory: JIT is not supported on this build");
}

ExecMemory::~ExecMemory() = default;

#endif

ExecMemory::ExecMemory(ExecMemory&& other) noexcept
    : mem_(std::exchange(other.mem_, nullptr)),
      code_size_(std::exchange(other.code_size_, 0)),
      mapped_size_(std::exchange(other.mapped_size_, 0)) {}

}  // namespace capbench::bpf::jit
