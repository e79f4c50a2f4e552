#include "capbench/bpf/program_cache.hpp"

#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/verifier.hpp"

namespace capbench::bpf {

namespace {

struct ProgramLess {
    bool operator()(const Program& a, const Program& b) const {
        if (a.size() != b.size()) return a.size() < b.size();
        for (std::size_t i = 0; i < a.size(); ++i) {
            const auto ta = std::tuple{a[i].code, a[i].jt, a[i].jf, a[i].k};
            const auto tb = std::tuple{b[i].code, b[i].jt, b[i].jf, b[i].k};
            if (ta != tb) return ta < tb;
        }
        return false;
    }
};

struct Cache {
    std::mutex mu;
    std::map<Program, std::shared_ptr<const JitProgram>, ProgramLess> entries;
    CacheStats stats;
    std::map<std::pair<std::string, std::uint32_t>, std::shared_ptr<const Program>> compiled;
};

Cache& cache() {
    static Cache c;  // leaked-on-exit singleton keeps shutdown order trivial
    return c;
}

}  // namespace

std::shared_ptr<const JitProgram> cache_filter(const Program& prog) {
    Cache& c = cache();
    {
        const std::lock_guard<std::mutex> lock(c.mu);
        if (const auto it = c.entries.find(prog); it != c.entries.end()) {
            ++c.stats.lookups;
            ++c.stats.hits;
            return it->second;
        }
    }
    // Verify + compile outside the lock: attach-time work, and the
    // verifier may throw.  A racing install of the same program does the
    // work twice but both sides agree; the first insert wins (and counts
    // the miss/compile — losers count hits).  A lookup is counted with its
    // hit or miss, so a rejected program counts none and lookups == hits +
    // misses holds for the whole process.
    verify_or_throw(prog);
    std::shared_ptr<const JitProgram> jitted = JitProgram::compile(prog);

    const std::lock_guard<std::mutex> lock(c.mu);
    ++c.stats.lookups;
    const auto [it, inserted] = c.entries.try_emplace(prog, std::move(jitted));
    if (inserted) {
        ++c.stats.misses;
        ++c.stats.jit_compiles;
    } else {
        ++c.stats.hits;
    }
    return it->second;
}

std::shared_ptr<const Program> compiled_filter(const std::string& expression,
                                               std::uint32_t snaplen) {
    Cache& c = cache();
    auto key = std::pair{expression, snaplen};
    {
        const std::lock_guard<std::mutex> lock(c.mu);
        if (const auto it = c.compiled.find(key); it != c.compiled.end()) return it->second;
    }
    // Parse + codegen + optimize outside the lock, like cache_filter; a
    // throw stores nothing, and the first insert wins a race.
    auto prog = std::make_shared<const Program>(filter::compile_filter(expression, snaplen));
    const std::lock_guard<std::mutex> lock(c.mu);
    return c.compiled.try_emplace(std::move(key), std::move(prog)).first->second;
}

CacheStats cache_stats() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mu);
    return c.stats;
}

}  // namespace capbench::bpf
