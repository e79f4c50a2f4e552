// Small-buffer-optimized move-only callable for the DES hot path.
//
// Every simulated event carries a `void()` callback; with std::function the
// common captures ([this, packet], kernel-work completions) exceed the
// 16-byte SSO and heap-allocate once per event.  InplaceFunction stores
// callables up to kInlineBytes directly in the event slot, so the
// steady-state event loop performs no allocation at all.  Oversized or
// over-aligned callables (rare: chunk-migration continuations that capture
// another InplaceFunction) transparently fall back to the heap, keeping the
// type a drop-in replacement for std::function<void()>.
//
// Moving an InplaceFunction relocates its callable.  Trivially copyable
// callables (the [this, index] captures of most hot-path events) and the
// heap fallback's pointer relocate with one fixed-size memcpy of the
// storage; only other callables pay an indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace capbench::sim {

class InplaceFunction {
public:
    /// Sized to hold the largest hot-path continuation: a CaptureApp batch
    /// chunk ([this, Batch{vector, bytes, Work}, three size_t's] = 96 B).
    static constexpr std::size_t kInlineBytes = 96;

    /// True when callables of type `Fn` are stored inline (no allocation).
    template <typename Fn>
    static constexpr bool fits_inline = sizeof(Fn) <= kInlineBytes &&
                                        alignof(Fn) <= alignof(std::max_align_t) &&
                                        std::is_nothrow_move_constructible_v<Fn>;

    InplaceFunction() noexcept = default;
    InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
        using Fn = std::decay_t<F>;
        if constexpr (fits_inline<Fn>) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
            ops_ = &inline_ops<Fn>;
        } else {
            ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
            ops_ = &heap_ops<Fn>;
        }
    }

    InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }

    InplaceFunction& operator=(InplaceFunction&& other) noexcept {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    InplaceFunction& operator=(std::nullptr_t) noexcept {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction&) = delete;
    InplaceFunction& operator=(const InplaceFunction&) = delete;

    ~InplaceFunction() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

    void operator()() { ops_->invoke(storage_); }

    void reset() noexcept {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr) ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

private:
    struct Ops {
        void (*invoke)(void* self);
        /// Move-constructs into `dst` from `src`, then destroys `src`;
        /// null when a memcpy of the storage does both.
        void (*relocate)(void* src, void* dst) noexcept;
        /// Null when the stored object needs no destruction.
        void (*destroy)(void* self) noexcept;
    };

    template <typename Fn>
    static Fn* self(void* p) noexcept {
        return std::launder(reinterpret_cast<Fn*>(p));
    }

    template <typename Fn>
    static constexpr Ops inline_ops = std::is_trivially_copyable_v<Fn>
        ? Ops{[](void* p) { (*self<Fn>(p))(); }, nullptr, nullptr}
        : Ops{
              [](void* p) { (*self<Fn>(p))(); },
              [](void* src, void* dst) noexcept {
                  ::new (dst) Fn(std::move(*self<Fn>(src)));
                  self<Fn>(src)->~Fn();
              },
              [](void* p) noexcept { self<Fn>(p)->~Fn(); },
          };

    // The stored pointer relocates bytewise; only destruction is typed.
    template <typename Fn>
    static constexpr Ops heap_ops = {
        [](void* p) { (**self<Fn*>(p))(); },
        nullptr,
        [](void* p) noexcept { delete *self<Fn*>(p); },
    };

    void move_from(InplaceFunction& other) noexcept {
        if (other.ops_ != nullptr) {
            if (other.ops_->relocate != nullptr)
                other.ops_->relocate(other.storage_, storage_);
            else
                std::memcpy(storage_, other.storage_, kInlineBytes);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) std::byte storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

}  // namespace capbench::sim
