#pragma once
// Allocation-free event callback for the discrete-event hot path.
//
// EventFn is a move-only, small-buffer-only replacement for
// std::function<void()>: every callable is stored inline in a fixed-size
// buffer, and a callable that does not fit is a compile error rather than a
// silent heap fallback. The simulator schedules millions of events per
// experiment; with EventFn a schedule() performs zero allocations, and the
// static_assert in construct() is the proof that this holds for every
// in-tree caller. If it fires, shrink the capture: capture a pointer, or
// park the bulky state in storage the owner keeps and capture a handle to
// it (GcmService's in-flight fetches are the in-tree example). The limit is
// what keeps an event-queue slot in one cache line; do not raise it.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace simty::sim {

/// Move-only callable with fixed inline storage and no heap fallback.
class EventFn {
 public:
  /// Every in-tree capture is a few pointers and scalars (at most 40
  /// bytes); with the ops pointer an EventFn is 48 bytes, which leaves an
  /// event-queue slot room for its label and links in 64.
  static constexpr std::size_t kInlineBytes = 40;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    construct(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Replaces the stored callable with `f`, constructed directly in the
  /// inline buffer: a callable is never built elsewhere and moved in. An
  /// EventFn argument is relocated instead.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "emplace an EventFn by rvalue");
      move_from(f);
    } else {
      construct(std::forward<F>(f));
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the stored callable; must not be empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the stored callable (if any), leaving the EventFn empty.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// move-construct into dst + destroy src; null when copying the whole
    /// buffer is equivalent (trivially copyable + trivially destructible —
    /// nearly every in-tree capture, a pointer or two). That copy has a
    /// constant size, so it compiles to a few inline moves; the null check
    /// is a predicted branch, the indirect call it replaces is not free.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;  // null when trivially destructible
  };

  template <typename Fn>
  static const Ops* ops_for() {
    constexpr bool kTrivial =
        std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
    static constexpr Ops ops{
        [](void* self) { (*static_cast<Fn*>(self))(); },
        kTrivial ? nullptr
                 : +[](void* src, void* dst) noexcept {
                     Fn* from = static_cast<Fn*>(src);
                     ::new (dst) Fn(std::move(*from));
                     from->~Fn();
                   },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
    };
    return &ops;
  }

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "EventFn requires a void() callable");
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "callback capture too large for EventFn inline storage — "
                  "capture a pointer or a handle into owner-kept storage");
    static_assert(alignof(Fn) <= alignof(void*),
                  "callback over-aligned for EventFn inline storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "EventFn callables must be nothrow-move-constructible");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = ops_for<Fn>();
  }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        ops_->relocate(other.storage_, storage_);
      }
      other.ops_ = nullptr;
    }
  }

  // ops_ sits in front of the storage so the emptiness check and a small
  // capture share one cache line with the rest of an event-queue slot.
  const Ops* ops_ = nullptr;
  alignas(void*) std::byte storage_[kInlineBytes];
};

static_assert(sizeof(EventFn) == 48,
              "EventFn must stay 48 bytes (it shares a 64-byte queue slot)");

}  // namespace simty::sim
