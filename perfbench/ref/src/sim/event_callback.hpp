#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace xmp::sim {

/// Move-only `void()` callable with small-buffer optimization.
///
/// The event hot path schedules tens of millions of callbacks per run; a
/// `std::function` would heap-allocate for anything beyond two pointers of
/// captures. Every capture the simulator actually uses (`[this]`,
/// `[this, epoch]`, RTO/timer closures, trace entries) fits in
/// `kInlineBytes`, so scheduling never allocates. Larger callables still
/// work via a heap fallback, but that path asserts in debug builds so a
/// spilling capture is caught the first time it is scheduled.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      assert(!"EventCallback capture spilled to the heap; shrink it below kInlineBytes");
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventCallback");
    ops_->invoke(storage_);
  }

  /// Destroy the held callable (if any) and return to the empty state.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move the callable from `src` into uninitialized `dst` and destroy
    /// the source. noexcept by construction (inline storage requires a
    /// nothrow move; the heap path only moves a pointer).
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* src, void* dst) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<Fn**>(dst) = *std::launder(reinterpret_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace xmp::sim
