#pragma once
// Pending-event set for the discrete-event simulator.
//
// Events are ordered by (time, priority, insertion sequence): simultaneous
// events run in deterministic order, and the priority lane lets the device
// model run hardware-level transitions (RTC interrupt, wake completion)
// before framework-level reactions scheduled for the same instant.
//
// Storage is a 4-ary min-heap of {key, slot} nodes over a slab of slots
// recycled through a free list, so the steady state allocates nothing.
// Both arrays can be carved from a common::Arena (per-shard in the fleet
// runner) so repeated runs reset instead of reallocating. Per-device
// queues hold tens of events, where this plain layout measures the same
// as a cache-tuned one (DESIGN.md §9).
//
// cancel() is lazy: it marks a generation-checked tombstone instead of
// erasing, and the tombstone is skipped (and its slot recycled) when it
// reaches the heap root. Lazy cancellation cannot perturb the fire order:
// the (time, priority, seq) key of a live event never changes, and
// tombstones are invisible to next_time()/pop() by the root-is-live
// invariant maintained after every mutation.

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/time.hpp"
#include "sim/event_fn.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::sim {

/// Handle to a scheduled event; valid until the event fires or is cancelled.
/// Encodes (slot generation << 32 | slab index); a default-constructed id
/// (value 0) never names a live event.
struct EventId {
  std::uint64_t value = 0;
  bool operator==(const EventId&) const = default;
};

/// Tie-break lane for events scheduled at the same instant (lower runs first).
enum class EventPriority : int {
  kHardware = 0,   // RTC interrupts, device state transitions
  kFramework = 1,  // alarm manager delivery, task completion
  kApp = 2,        // app reactions, re-registration
  kObserver = 3,   // metrics sampling, trace capture
};

/// Interns a dynamically built label into a process-lifetime pool and
/// returns a stable C string. Schedule labels are static literals on the
/// hot path; this is the debug escape hatch for code that wants a computed
/// label. Repeat lookups take only a shared lock, so labeled events do not
/// serialize fleet shards — but it still costs a hash + map probe, so keep
/// it out of per-event paths.
const char* intern_label(std::string_view label);

/// Min-ordered set of future events with O(log n) schedule/cancel/pop, no
/// per-event heap allocation, and optional arena-backed storage.
class EventQueue {
 public:
  EventQueue();
  /// All internal storage is carved from `arena` when non-null. The arena
  /// must outlive the queue, and must not be reset while the queue lives.
  explicit EventQueue(common::Arena* arena);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at `when`; `label` must outlive the event (pass a
  /// string literal, or intern_label() for a computed one). The callable is
  /// constructed directly in its slot, so scheduling copies no callback. A
  /// callable whose construction may throw (an lvalue with an owning
  /// capture) is built first, so a throw leaves the queue untouched. An
  /// empty EventFn is rejected before any slot or sequence number is taken.
  template <typename F>
  EventId schedule(TimePoint when, EventPriority priority, F&& cb,
                   const char* label = "") {
    if constexpr (!std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
      return schedule(when, priority, EventFn(std::forward<F>(cb)), label);
    } else {
      if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
        SIMTY_CHECK_MSG(static_cast<bool>(cb), "EventQueue::schedule: empty callback");
      }
      const std::uint32_t idx = acquire_slot();
      slab_[idx].callback.emplace(std::forward<F>(cb));
      return arm(idx, when, priority, label);
    }
  }

  /// Cancels a pending event. Returns false if it already fired/was
  /// cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }

  /// Number of live (scheduled, not cancelled) events.
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; queue must be non-empty.
  TimePoint next_time() const {
    if (live_ == 0) [[unlikely]] check_next_time();
    // live_ > 0 => the root is live (prune invariant after every mutation).
    return TimePoint::from_us(heap_[0].when_us);
  }

  /// Removes and returns the earliest event's callback and metadata. The
  /// callback is relocated out of its slot once (a fixed-size copy for a
  /// trivially relocatable capture); a callback may schedule events that
  /// grow the slab, so it cannot run in place.
  struct Fired {
    TimePoint when;
    EventFn callback;
    const char* label = "";
    EventPriority priority = EventPriority::kFramework;
  };
  Fired pop();

  /// Slab high-water mark (slots ever allocated); tombstoned slots are
  /// recycled, so this stays near the peak live count. Exposed for tests.
  std::size_t slab_slots() const { return slab_.size(); }

  /// Serializes the queue's complete structure — heap nodes verbatim, slab
  /// labels/generations/free-list links/armed flags, and the sequence
  /// counter — into the writer's open section. Callbacks cannot be
  /// serialized; after restore() every armed event is empty until the
  /// owner rebind()s it (see fully_bound()).
  void save(snapshot::Writer& w) const;

  /// Restores the exact structure written by save(), replacing the queue's
  /// current contents wholesale. Lengths, slot references, free-list links,
  /// heap order and the root-is-live invariant are all checked
  /// (SIMTY_CHECK), so a corrupted snapshot fails here, not later as a
  /// misordered or corrupted queue.
  void restore(snapshot::SectionReader& s);

  /// Re-attaches the callback of a restored armed event. The id must name a
  /// live restored event whose callback is still empty.
  void rebind(EventId id, EventFn cb);

  /// True when every armed (live) slot holds a non-empty callback — the
  /// post-restore coverage check run before a resumed simulation may step.
  bool fully_bound() const;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// next_free of a live event's slot; never a slot index (the slab stays
  /// below it).
  static constexpr std::uint32_t kArmed = 0xfffffffeu;
  /// The sequence number shares the order word with the priority, which
  /// takes the top 4 bits.
  static constexpr std::uint64_t kSeqLimit = 1ull << 60;

  struct Node {
    std::int64_t when_us;
    std::uint64_t order;  // (priority << 60) | seq
    std::uint32_t slot;
  };

  /// One cache line. A slot is free (on the free list; next_free is the
  /// link, kNilSlot at the tail), armed (a live event; next_free ==
  /// kArmed), or a tombstone awaiting root pruning (off the free list;
  /// next_free == kNilSlot).
  struct Slot {
    EventFn callback;
    const char* label = "";
    std::uint32_t generation = 1;  // bumped on release; 0 is never live
    std::uint32_t next_free = kNilSlot;

    bool armed() const { return next_free == kArmed; }
    /// The free-list link as saved: an armed slot has none.
    std::uint32_t link() const { return armed() ? kNilSlot : next_free; }
  };
  static_assert(sizeof(Slot) == 64, "an event-queue slot must fill one cache line");

  static bool node_less(const Node& a, const Node& b) {
    if (a.when_us != b.when_us) return a.when_us < b.when_us;
    return a.order < b.order;
  }

  /// A free slot for a new event (recycled when possible); checks the
  /// sequence space first, so a failure takes nothing.
  std::uint32_t acquire_slot() {
    SIMTY_CHECK_MSG(next_seq_ < kSeqLimit, "EventQueue: sequence space exhausted");
    if (free_head_ == kNilSlot) return grow_slab();
    const std::uint32_t idx = free_head_;
    free_head_ = slab_[idx].next_free;
    return idx;
  }
  /// Appends a fresh slot to the slab.
  std::uint32_t grow_slab();
  /// Labels and arms slot `idx` (its callback already built) and pushes
  /// its heap node with the next sequence number.
  EventId arm(std::uint32_t idx, TimePoint when, EventPriority priority,
              const char* label) {
    Slot& s = slab_[idx];
    s.label = label != nullptr ? label : "";
    s.next_free = kArmed;
    heap_push(when.us(), (static_cast<std::uint64_t>(priority) << 60) | next_seq_++, idx);
    ++live_;
    return EventId{(static_cast<std::uint64_t>(s.generation) << 32) | idx};
  }
  void release_slot(std::uint32_t idx);
  /// next_time()'s non-empty SIMTY_CHECK, out of line.
  [[gnu::cold]] void check_next_time() const;
  /// Hole-based sift-up; the node is written once, at its final position.
  void heap_push(std::int64_t when_us, std::uint64_t order, std::uint32_t slot);
  void heap_pop_root();
  /// Recycles tombstones sitting at the heap root, restoring the invariant
  /// that a non-empty heap's root is a live event.
  void prune_root();

  common::ArenaVector<Node> heap_;
  common::ArenaVector<Slot> slab_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace simty::sim
