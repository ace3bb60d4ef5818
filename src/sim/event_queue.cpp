#include "sim/event_queue.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::sim {

namespace {

// Transparent FNV-1a hasher/equality so interner lookups hash the incoming
// string_view directly — the shared-lock fast path allocates nothing.
struct LabelHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
  // Interner-only overload for the pool's own elements; never on the
  // per-event path.
  // simty-lint: allow(string-label)
  std::size_t operator()(const std::string& s) const noexcept {
    return (*this)(std::string_view(s));
  }
};

struct LabelEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace

const char* intern_label(std::string_view label) {
  // Node-based set: element addresses are stable across rehashing. The pool
  // is global (labels outlive every queue) and read-mostly — after warmup
  // every lookup hits the shared-lock fast path, so labeled events do not
  // serialize fleet shards on a mutex.
  static std::shared_mutex mu;
  // The interner is the one sanctioned owner of label strings: each label is
  // copied exactly once, ever, and the hot path only sees the c_str().
  // simty-lint: allow(string-label, hot-path-owning)
  static std::unordered_set<std::string, LabelHash, LabelEq> pool SIMTY_GUARDED_BY(mu);
  {
    const std::shared_lock<std::shared_mutex> read(mu);
    const auto it = pool.find(label);
    // Membership probe, not iteration — order never observed.
    // simty-lint: allow(unordered-iter)
    if (it != pool.end()) return it->c_str();
  }
  const std::unique_lock<std::shared_mutex> write(mu);
  return pool.emplace(label).first->c_str();
}

EventQueue::EventQueue() : EventQueue(nullptr) {}

EventQueue::EventQueue(common::Arena* arena) : heap_(arena), slab_(arena) {}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (idx >= slab_.size()) return false;
  Slot& s = slab_[idx];
  if (!s.armed() || s.generation != gen) return false;
  // Lazy cancellation: tombstone the slot; the heap node is recycled when
  // it surfaces at the root. Drop the callback now so captured resources
  // are released at cancel time, not at some later pop.
  s.next_free = kNilSlot;
  s.callback.reset();
  --live_;
  prune_root();
  return true;
}

void EventQueue::check_next_time() const {
  SIMTY_CHECK_MSG(live_ > 0, "EventQueue::next_time on empty queue");
}

EventQueue::Fired EventQueue::pop() {
  SIMTY_CHECK_MSG(live_ > 0, "EventQueue::pop on empty queue");
  const Node root = heap_[0];
  Slot& s = slab_[root.slot];
  Fired fired{TimePoint::from_us(root.when_us), std::move(s.callback), s.label,
              static_cast<EventPriority>(root.order >> 60)};
  release_slot(root.slot);
  heap_pop_root();
  --live_;
  prune_root();
  return fired;
}

std::uint32_t EventQueue::grow_slab() {
  SIMTY_CHECK_MSG(slab_.size() < kArmed, "EventQueue: slab index space exhausted");
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  Slot& s = slab_[idx];
  s.callback.reset();
  s.label = "";
  // Invalidate every outstanding EventId naming this slot before it is
  // recycled (cancel-after-fire must return false, not hit the new tenant).
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = idx;
}

void EventQueue::heap_push(std::int64_t when_us, std::uint64_t order,
                           std::uint32_t slot) {
  // Shift losing parents down into the hole opened at the tail. The key
  // stays in registers: comparing against a node written to memory just
  // before would reload it through a pending store.
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    const Node& p = heap_[parent];
    if (when_us > p.when_us || (when_us == p.when_us && order > p.order)) break;
    heap_[i] = p;
    i = parent;
  }
  heap_[i] = Node{when_us, order, slot};
}

void EventQueue::heap_pop_root() {
  const Node last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Hole-based sift-down of the former tail from the root.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (node_less(heap_[c], heap_[best])) best = c;
    }
    if (!node_less(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::prune_root() {
  while (!heap_.empty() && !slab_[heap_[0].slot].armed()) {
    release_slot(heap_[0].slot);
    heap_pop_root();
  }
}

void EventQueue::save(snapshot::Writer& w) const {
  // Heap nodes verbatim: the restored array is the live one, so the resumed
  // pop order is trivially the straight run's.
  w.u64(heap_.size());
  for (const Node& n : heap_) {
    w.i64(n.when_us);
    w.u64(n.order);
    w.u32(n.slot);
  }
  w.u64(slab_.size());
  for (const Slot& s : slab_) {
    w.str(s.label);
    w.u32(s.generation);
    w.u32(s.link());
    w.boolean(s.armed());
  }
  w.u32(free_head_);
  w.u64(next_seq_);
  w.u64(live_);
}

void EventQueue::restore(snapshot::SectionReader& s) {
  // Wholesale replacement: anything the owner scheduled during (re)construction
  // is discarded along with its slots.
  heap_.clear();
  slab_.clear();

  const std::uint64_t heap_n = s.u64();
  s.check_count(heap_n, 2 * 9 + 5);  // tagged i64 + u64 + u32 per node
  for (std::uint64_t i = 0; i < heap_n; ++i) {
    const std::int64_t when_us = s.i64();
    const std::uint64_t order = s.u64();
    const std::uint32_t slot = s.u32();
    heap_.push_back(Node{when_us, order, slot});
  }
  const std::uint64_t slots = s.u64();
  s.check_count(slots, 9 + 2 * 5 + 2);  // str tag+len, two u32, one bool
  SIMTY_CHECK_MSG(slots < kNilSlot, "EventQueue::restore: slot count out of range");
  slab_.resize(static_cast<std::size_t>(slots));
  for (Slot& slot : slab_) {
    // Cold path: restore runs once per resume, never per event.
    const std::string label = s.str();  // simty-lint: allow(string-label)
    slot.label = label.empty() ? "" : intern_label(label);
    slot.generation = s.u32();
    const std::uint32_t link = s.u32();
    const bool armed = s.boolean();
    SIMTY_CHECK_MSG(link == kNilSlot || link < slots,
                    "EventQueue::restore: free-list link out of range");
    SIMTY_CHECK_MSG(!armed || link == kNilSlot,
                    "EventQueue::restore: armed slot carries a free-list link");
    slot.next_free = armed ? kArmed : link;
  }
  free_head_ = s.u32();
  SIMTY_CHECK_MSG(free_head_ == kNilSlot || free_head_ < slots,
                  "EventQueue::restore: free head out of range");
  next_seq_ = s.u64();
  SIMTY_CHECK_MSG(next_seq_ >= 1 && next_seq_ < kSeqLimit,
                  "EventQueue::restore: sequence counter out of range");
  live_ = static_cast<std::size_t>(s.u64());

  // Structural cross-checks: each slot is on the free list, under exactly
  // one heap node, or neither (never both); every armed slot has a node;
  // the heap is ordered; and a non-empty heap's root is live.
  enum : std::uint8_t { kUnseen, kFree, kInHeap };
  common::ArenaVector<std::uint8_t> seen;
  seen.resize(static_cast<std::size_t>(slots));  // all kUnseen
  for (std::uint32_t f = free_head_; f != kNilSlot; f = slab_[f].link()) {
    SIMTY_CHECK_MSG(seen[f] == kUnseen, "EventQueue::restore: free-list cycle");
    seen[f] = kFree;
  }
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t slot = heap_[i].slot;
    SIMTY_CHECK_MSG(slot < slots, "EventQueue::restore: heap node slot out of range");
    SIMTY_CHECK_MSG(seen[slot] != kFree, "EventQueue::restore: heap node names a free slot");
    SIMTY_CHECK_MSG(seen[slot] != kInHeap,
                    "EventQueue::restore: slot referenced by two heap nodes");
    seen[slot] = kInHeap;
    SIMTY_CHECK_MSG(i == 0 || !node_less(heap_[i], heap_[(i - 1) / 4]),
                    "EventQueue::restore: heap order violated");
  }
  std::size_t armed_count = 0;
  for (std::size_t i = 0; i < slab_.size(); ++i) {
    if (!slab_[i].armed()) continue;
    SIMTY_CHECK_MSG(seen[i] == kInHeap, "EventQueue::restore: armed slot has no heap node");
    ++armed_count;
  }
  SIMTY_CHECK_MSG(armed_count == live_,
                  "EventQueue::restore: live count does not match armed slots");
  SIMTY_CHECK_MSG(heap_.empty() || slab_[heap_[0].slot].armed(),
                  "EventQueue::restore: heap root is a tombstone");
}

void EventQueue::rebind(EventId id, EventFn cb) {
  SIMTY_CHECK_MSG(static_cast<bool>(cb), "EventQueue::rebind: empty callback");
  const auto idx = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  SIMTY_CHECK_MSG(
      idx < slab_.size() && slab_[idx].armed() && slab_[idx].generation == gen,
      "EventQueue::rebind: id does not name a restored live event");
  SIMTY_CHECK_MSG(!slab_[idx].callback, "EventQueue::rebind: event already bound");
  slab_[idx].callback.emplace(std::move(cb));
}

bool EventQueue::fully_bound() const {
  for (const Slot& s : slab_) {
    if (s.armed() && !s.callback) return false;
  }
  return true;
}

}  // namespace simty::sim
