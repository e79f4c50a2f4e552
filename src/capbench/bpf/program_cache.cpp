#include "capbench/bpf/program_cache.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
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
    std::map<Program, CachedFilter, ProgramLess> entries;
    CacheStats stats;
    std::map<std::pair<std::string, std::uint32_t>, std::shared_ptr<const Program>> compiled;
};

Cache& cache() {
    static Cache c;  // leaked-on-exit singleton keeps shutdown order trivial
    return c;
}

}  // namespace

CachedFilter cache_filter(const Program& prog, bool want_jit) {
    Cache& c = cache();
    bool have_decoded = false;
    std::shared_ptr<const DecodedProgram> decoded;
    {
        const std::lock_guard<std::mutex> lock(c.mu);
        if (const auto it = c.entries.find(prog); it != c.entries.end()) {
            if (!want_jit || it->second.jit != nullptr) {
                ++c.stats.lookups;
                ++c.stats.hits;
                return it->second;
            }
            // Entry exists but the native code does not yet: compile below.
            have_decoded = true;
            decoded = it->second.decoded;
        }
    }
    // Verify + decode + compile outside the lock: attach-time work, and the
    // verifier may throw.  A racing install of the same program does the
    // work twice but both sides agree; the first insert wins and fixes the
    // id (and counts the miss/compile — losers count hits).  A lookup is
    // counted with its hit or miss, so a rejected program counts none and
    // lookups == hits + misses holds for the whole process.
    if (!have_decoded) {
        VerifyResult verdict = verify(prog);
        if (const analysis::Finding* err = verdict.first_error())
            throw std::invalid_argument("BPF verifier rejected filter: " +
                                        analysis::to_string(*err));
        decoded = std::make_shared<DecodedProgram>(decode(prog, verdict.facts));
    }
    std::shared_ptr<const JitProgram> jitted;
    if (want_jit) jitted = JitProgram::compile(*decoded);

    const std::lock_guard<std::mutex> lock(c.mu);
    ++c.stats.lookups;
    const auto it = c.entries.find(prog);
    if (it == c.entries.end()) {
        auto owned = std::const_pointer_cast<DecodedProgram>(decoded);
        owned->id = c.entries.size() + 1;
        ++c.stats.misses;
        if (jitted != nullptr) ++c.stats.jit_compiles;
        return c.entries.emplace(prog, CachedFilter{std::move(decoded), std::move(jitted)})
            .first->second;
    }
    ++c.stats.hits;
    if (jitted != nullptr && it->second.jit == nullptr) {
        it->second.jit = std::move(jitted);
        ++c.stats.jit_compiles;
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

std::shared_ptr<const DecodedProgram> cache_decoded(const Program& prog) {
    return cache_filter(prog, false).decoded;
}

std::size_t cached_program_count() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mu);
    return c.entries.size();
}

CacheStats cache_stats() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mu);
    return c.stats;
}

}  // namespace capbench::bpf
