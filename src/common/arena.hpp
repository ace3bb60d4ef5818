#pragma once
// Per-run bump arena with O(1) whole-run reset.
//
// The fleet runner simulates one device after another on each shard; the
// sweep runner repeats one config across seeds. Both used to pay the general
// allocator on every run for storage whose lifetime is exactly "one run":
// event-queue slabs and tracer chunks. An Arena makes
// that lifetime explicit — allocation is a pointer bump, and reset() rewinds
// to the start while *retaining* every block, so the second and every later
// run on a shard allocates nothing at all.
//
// Ownership rules (see DESIGN.md "Event core & per-run arenas"):
//   - The arena outlives every container carved from it. Holders take a
//     non-owning Arena* and never free individual allocations.
//   - reset() invalidates all outstanding allocations at once; callers must
//     drop (or clear) their ArenaVectors before the owner resets.
//   - Arena is single-threaded by design: one arena per shard/worker, never
//     shared across threads (matching the one-simulator-per-worker model).
//
// ArenaVector<T> is the growable-array shim used by the hot paths: with an
// arena it bump-allocates and abandons old capacity (reclaimed wholesale at
// reset); without one it falls back to the heap so all call sites work
// unchanged when no arena is configured.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace simty::common {

/// Bump allocator over a chain of geometrically growing blocks.
class Arena {
 public:
  /// Every block is allocated at (and allocation honors up to) this
  /// alignment, so cache-line-aligned storage can be carved directly.
  static constexpr std::size_t kMaxAlign = 64;

  explicit Arena(std::size_t first_block_bytes = kDefaultFirstBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (power of two,
  /// <= kMaxAlign). Never returns nullptr; grows by appending a block when
  /// the current one is full. `bytes == 0` is allowed (returns a live,
  /// aligned pointer).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Rewinds the arena to empty, retaining every block for reuse.
  /// Invalidates all outstanding allocations. Amortized O(1): no block is
  /// freed or cleared.
  void reset();

  /// Observability for the steady-state allocation gates: a warmed arena
  /// must show `block_allocs` constant across reset()+rerun cycles.
  struct Stats {
    std::size_t block_allocs = 0;    // blocks ever requested from the heap
    std::size_t resets = 0;          // reset() calls
    std::size_t reserved_bytes = 0;  // sum of block capacities
    std::size_t used_bytes = 0;      // bytes handed out since last reset
  };
  Stats stats() const;

 private:
  static constexpr std::size_t kDefaultFirstBlockBytes = 64 * 1024;

  struct Block {
    std::byte* data = nullptr;
    std::size_t capacity = 0;
  };

  /// Slow path: advance to a retained block that fits, or grow.
  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // index of the block being bumped
  std::size_t offset_ = 0;   // bump offset within blocks_[current_]
  std::size_t first_block_bytes_;
  std::size_t block_allocs_ = 0;
  std::size_t resets_ = 0;
};

/// Growable array backed by an Arena (or the heap when arena == nullptr).
///
/// Deliberately minimal: the event-core containers need push/pop/index/
/// clear/resize and nothing else. Elements must be nothrow-move-
/// constructible so growth never needs a copy fallback.
template <typename T>
class ArenaVector {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "ArenaVector elements must be nothrow-move-constructible");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned elements are not supported");

 public:
  ArenaVector() = default;
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  ArenaVector(ArenaVector&& other) noexcept
      : arena_(other.arena_), data_(other.data_), size_(other.size_),
        capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  ArenaVector& operator=(ArenaVector&& other) noexcept {
    if (this != &other) {
      destroy_storage();
      arena_ = other.arena_;
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;

  ~ArenaVector() { destroy_storage(); }

  /// Rebinds to `arena`; only legal before any storage exists (the arena
  /// is injected right after construction, never mid-life).
  void set_arena(Arena* arena) {
    SIMTY_CHECK_MSG(data_ == nullptr, "ArenaVector::set_arena after allocation");
    arena_ = arena;
  }

  Arena* arena() const { return arena_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(size_ + 1);
    T* p = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  /// Destroys elements; keeps capacity (the steady-state reuse path).
  void clear() {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~T();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  /// Grows with value-initialized elements, or shrinks destroying the tail.
  void resize(std::size_t n) {
    if (n < size_) {
      for (std::size_t i = size_; i > n; --i) data_[i - 1].~T();
    } else {
      if (n > capacity_) grow(n);
      for (std::size_t i = size_; i < n; ++i) ::new (static_cast<void*>(data_ + i)) T();
    }
    size_ = n;
  }

 private:
  void grow(std::size_t min_capacity) {
    std::size_t new_cap = capacity_ < 8 ? 8 : capacity_ * 2;
    if (new_cap < min_capacity) new_cap = min_capacity;
    T* fresh = allocate_raw(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_raw();
    data_ = fresh;
    capacity_ = new_cap;
  }

  T* allocate_raw(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  /// Frees the current buffer on the heap path; arena storage is abandoned
  /// (reclaimed wholesale by Arena::reset()).
  void release_raw() {
    if (arena_ != nullptr || data_ == nullptr) return;
    ::operator delete(static_cast<void*>(data_));
  }

  void destroy_storage() {
    clear();
    release_raw();
    data_ = nullptr;
    capacity_ = 0;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace simty::common
