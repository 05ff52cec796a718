/**
 * @file
 * SmallFnT: a move-only `void(Args...)` callable with inline storage,
 * built for the event engine's hot path.
 *
 * `std::function` heap-allocates any capture larger than two words,
 * which in practice means the memory pipeline's continuations (an
 * owner pointer, a transaction pointer and a cycle already exceed the
 * SBO budget). SmallFnT widens the inline buffer so every callback the
 * simulator actually creates is stored in place — scheduling an event
 * never touches the global allocator — and drops the copyability
 * requirement the event queue never needed. Callables too large for the
 * buffer still work; they fall back to a heap box, so the type stays
 * total.
 *
 * The dispatch surface is two function pointers held in a static ops
 * table (invoke + relocate-or-destroy), one indirect call per fire:
 * cheaper than `std::function`'s manager protocol and friendlier to
 * slab-allocated event nodes, which relocate the callable at most once
 * (schedule() into the node) and never copy it.
 *
 * The signature is a template parameter pack: `SmallFn` (= SmallFnT<>)
 * is the event queue's `void()` continuation, `TxnDoneFn`
 * (= SmallFnT<const MemTxn &, Cycle>) delivers memory-transaction
 * completions without forcing the capture to carry the transaction.
 */

#ifndef MCMGPU_COMMON_SMALLFN_HH
#define MCMGPU_COMMON_SMALLFN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mcmgpu {

/** Move-only `void(Args...)` callable with inline small-buffer storage. */
template <typename... Args>
class SmallFnT
{
  public:
    /** Inline capture budget, bytes. Sized so the codebase's largest
     *  hot-path capture and a whole `std::function` both fit without
     *  spilling. The largest is the PDES delivery that resumes a
     *  transaction at its next phase (owner pointer, transaction
     *  pointer, arrival cycle and phase: 32 bytes); warp events and
     *  memory continuations capture an SM pointer and slot indices
     *  (16 bytes). */
    static constexpr size_t kInlineBytes = 32;

    SmallFnT() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, SmallFnT> &&
                 std::is_invocable_r_v<void, std::decay_t<F> &, Args...>)
    SmallFnT(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(buf_) = new D(std::forward<F>(f));
            ops_ = &heapOps<D>;
        }
    }

    SmallFnT(SmallFnT &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    SmallFnT &
    operator=(SmallFnT &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    SmallFnT(const SmallFnT &) = delete;
    SmallFnT &operator=(const SmallFnT &) = delete;

    ~SmallFnT() { reset(); }

    /** Invoke the stored callable (must be non-empty). */
    void operator()(Args... args) { ops_->invoke(buf_, args...); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the stored callable, returning to the empty state. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *buf, Args... args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *buf);
    };

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *buf, Args... args) {
            (*std::launder(reinterpret_cast<D *>(buf)))(args...);
        },
        [](void *dst, void *src) {
            D *s = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        },
        [](void *buf) { std::launder(reinterpret_cast<D *>(buf))->~D(); },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *buf, Args... args) {
            (**reinterpret_cast<D **>(buf))(args...);
        },
        [](void *dst, void *src) {
            *reinterpret_cast<D **>(dst) = *reinterpret_cast<D **>(src);
        },
        [](void *buf) { delete *reinterpret_cast<D **>(buf); },
    };

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

/** The event queue's `void()` continuation type. */
using SmallFn = SmallFnT<>;

} // namespace mcmgpu

#endif // MCMGPU_COMMON_SMALLFN_HH
