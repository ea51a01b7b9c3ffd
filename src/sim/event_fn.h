// Small-buffer-optimized move-only callable for simulation events.
//
// Every scheduled event used to cost a type-erased std::function heap
// allocation (plus a shared state block). EventFn stores the closure
// inline when it fits kInlineBytes — sized for the captures the hot
// scheduling paths in core/, squirrel/ and the periodic timers actually
// build — and falls back to the heap otherwise. Being move-only (unlike
// std::function) also lets closures own unique_ptrs directly, so the
// network delivery path no longer needs a shared_ptr holder per message.
#ifndef FLOWERCDN_SIM_EVENT_FN_H_
#define FLOWERCDN_SIM_EVENT_FN_H_

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace flower {

class EventFn {
 public:
  /// Inline capture budget: 48 bytes of 8-byte-aligned storage plus the
  /// ops pointer make an EventFn 56 bytes, so a queue slot (the callable,
  /// its 32-bit seq and free-list link) is exactly one 64-byte cache line
  /// (event_queue.h asserts it). 48 bytes hold `WorkloadDriver`'s
  /// closure (this + a QueryEvent), every message delivery and protocol
  /// timer closure in core/ and squirrel/, and a periodic tick over an
  /// owner's `this` (timer + simulator + callable); larger captures (the
  /// rare observer closures) take the heap path.
  static constexpr size_t kInlineBytes = 48;
  static constexpr size_t kInlineAlign = alignof(void*);

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this == &other) return *this;
    reset();
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventFn");
    ops_->invoke(storage_);
  }

  /// Invokes the callable, then destroys it — one type-erased call
  /// instead of two. The dispatch fast path (EventQueue::RunNextIfBefore)
  /// runs every event through this.
  void InvokeAndReset() {
    assert(ops_ != nullptr && "invoking an empty EventFn");
    const Ops* ops = ops_;
    ops_ = nullptr;  // cleared first: the callable may overwrite *this
    ops->invoke_destroy(storage_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the held callable (and the captures it owns), if any.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when a callable of type F would be stored inline (no heap).
  template <typename F>
  static constexpr bool FitsInline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Invoke, then destroy (the dispatch fast path's single call).
    void (*invoke_destroy)(void* storage);
    /// Move-constructs into `dst` from `src`, then destroys `src`'s
    /// residue. Noexcept so pool slabs can grow with vector relocation.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); }
    static void InvokeDestroy(void* s) {
      Fn* fn = std::launder(reinterpret_cast<Fn*>(s));
      (*fn)();
      fn->~Fn();
    }
    static void Relocate(void* dst, void* src) noexcept {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* s) noexcept {
      std::launder(reinterpret_cast<Fn*>(s))->~Fn();
    }
    static constexpr Ops kOps = {&Invoke, &InvokeDestroy, &Relocate,
                                 &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(void* s) { return *reinterpret_cast<Fn**>(s); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void InvokeDestroy(void* s) {
      Fn* fn = Get(s);
      (*fn)();
      delete fn;
    }
    static void Relocate(void* dst, void* src) noexcept {
      *reinterpret_cast<Fn**>(dst) = Get(src);
    }
    static void Destroy(void* s) noexcept { delete Get(s); }
    static constexpr Ops kOps = {&Invoke, &InvokeDestroy, &Relocate,
                                 &Destroy};
  };

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

template <typename Fn>
constexpr EventFn::Ops EventFn::InlineOps<Fn>::kOps;
template <typename Fn>
constexpr EventFn::Ops EventFn::HeapOps<Fn>::kOps;

}  // namespace flower

#endif  // FLOWERCDN_SIM_EVENT_FN_H_
