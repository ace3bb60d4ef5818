#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::sim {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(3), EventPriority::kFramework, [&] { order.push_back(3); });
  q.schedule(at(1), EventPriority::kFramework, [&] { order.push_back(1); });
  q.schedule(at(2), EventPriority::kFramework, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTiesAtSameInstant) {
  EventQueue q;
  std::vector<std::string> order;
  q.schedule(at(5), EventPriority::kApp, [&] { order.push_back("app"); });
  q.schedule(at(5), EventPriority::kHardware, [&] { order.push_back("hw"); });
  q.schedule(at(5), EventPriority::kObserver, [&] { order.push_back("obs"); });
  q.schedule(at(5), EventPriority::kFramework, [&] { order.push_back("fw"); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<std::string>{"hw", "fw", "app", "obs"}));
}

TEST(EventQueue, InsertionOrderBreaksFullTies) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(at(1), EventPriority::kFramework, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelRemovesPendingEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(at(1), EventPriority::kFramework, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
  // Second cancel is a no-op returning false.
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(at(1), EventPriority::kFramework, [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeAndLabels) {
  EventQueue q;
  q.schedule(at(9), EventPriority::kFramework, [] {}, "later");
  q.schedule(at(4), EventPriority::kFramework, [] {}, "sooner");
  EXPECT_EQ(q.next_time(), at(4));
  EXPECT_STREQ(q.pop().label, "sooner");
  EXPECT_STREQ(q.pop().label, "later");
}

TEST(EventQueue, SizeTracksScheduleAndPop) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.schedule(at(1), EventPriority::kFramework, [] {});
  q.schedule(at(2), EventPriority::kFramework, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EmptyPopAndNextTimeThrow) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, EmptyCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(at(1), EventPriority::kFramework, EventFn{}),
               std::logic_error);
}

TEST(EventQueue, RejectedEmptyCallbackTakesNoSequenceNumberAndNoSlot) {
  EventQueue rejected;
  EventQueue clean;
  rejected.schedule(at(1), EventPriority::kFramework, [] {}, "a");
  clean.schedule(at(1), EventPriority::kFramework, [] {}, "a");
  const std::size_t slots = rejected.slab_slots();
  EXPECT_THROW(rejected.schedule(at(1), EventPriority::kFramework, EventFn{}),
               std::logic_error);
  EXPECT_EQ(rejected.slab_slots(), slots);
  EXPECT_EQ(rejected.size(), 1u);
  // The next event takes the same slot and sequence number it would have
  // taken without the rejected call: the saved structures are identical.
  rejected.schedule(at(1), EventPriority::kFramework, [] {}, "b");
  clean.schedule(at(1), EventPriority::kFramework, [] {}, "b");
  snapshot::Writer a;
  a.begin_section("queue", 1);
  rejected.save(a);
  a.end_section();
  snapshot::Writer b;
  b.begin_section("queue", 1);
  clean.save(b);
  b.end_section();
  EXPECT_EQ(a.finish(), b.finish());
}

// Counts how a callable is copied and moved on its way through the queue.
struct MoveCounter {
  int* copies;
  int* moves;
  int* calls;

  MoveCounter(int* c, int* m, int* k) : copies(c), moves(m), calls(k) {}
  MoveCounter(const MoveCounter& o) noexcept
      : copies(o.copies), moves(o.moves), calls(o.calls) {
    ++*copies;
  }
  MoveCounter(MoveCounter&& o) noexcept
      : copies(o.copies), moves(o.moves), calls(o.calls) {
    ++*moves;
  }
  void operator()() const { ++*calls; }
};

TEST(EventQueue, ScheduleBuildsTheCallbackInItsSlotAndFiringMovesItAtMostOnce) {
  int copies = 0;
  int moves = 0;
  int calls = 0;
  const MoveCounter counter(&copies, &moves, &calls);
  {
    EventQueue q;
    // Copying the caller's object into the slot is the construction; no
    // move may follow it at schedule time.
    q.schedule(at(1), EventPriority::kFramework, counter);
    EXPECT_EQ(copies, 1);
    EXPECT_EQ(moves, 0);
    EventQueue::Fired fired = q.pop();
    EXPECT_LE(moves, 1);
    fired.callback();
    EXPECT_EQ(calls, 1);
  }
  copies = moves = calls = 0;
  {
    // The simulator forwards to the same in-place construction.
    Simulator sim;
    sim.schedule_at(at(1), counter);
    sim.schedule_after(Duration::seconds(2), counter);
    EXPECT_EQ(copies, 2);
    EXPECT_EQ(moves, 0);
    sim.run_all();
    EXPECT_LE(moves, 2);  // at most one per fired event
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(copies, 2);
  }
}

TEST(EventQueue, SlabRecyclesTombstonedSlots) {
  EventQueue q;
  constexpr std::size_t kWindow = 64;
  // Many churn cycles of schedule-all/cancel-all must not grow the slab
  // past the peak live count: every tombstone's slot is recycled once it
  // surfaces at the heap root.
  for (int cycle = 0; cycle < 100; ++cycle) {
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < kWindow; ++i) {
      ids.push_back(q.schedule(at(static_cast<std::int64_t>(i + 1)),
                               EventPriority::kFramework, [] {}));
    }
    for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
  }
  EXPECT_LE(q.slab_slots(), kWindow);
}

TEST(EventQueue, CancelAfterSlotReuseMissesNewTenant) {
  EventQueue q;
  const EventId a = q.schedule(at(1), EventPriority::kFramework, [] {});
  q.pop();  // a's slot is recycled
  bool b_fired = false;
  const EventId b = q.schedule(at(2), EventPriority::kFramework, [&] { b_fired = true; });
  // The stale id names the same slot but an older generation: cancelling it
  // must not evict the new tenant.
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(b_fired);
  EXPECT_TRUE(q.cancel(b) == false);
}

TEST(EventQueue, CancelledEventNeverFiresEvenWhenInterleaved) {
  EventQueue q;
  std::vector<int> fired;
  const EventId doomed =
      q.schedule(at(2), EventPriority::kFramework, [&] { fired.push_back(2); });
  q.schedule(at(1), EventPriority::kFramework, [&] { fired.push_back(1); });
  q.schedule(at(3), EventPriority::kFramework, [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId head = q.schedule(at(1), EventPriority::kFramework, [] {});
  q.schedule(at(5), EventPriority::kFramework, [] {});
  EXPECT_EQ(q.next_time(), at(1));
  EXPECT_TRUE(q.cancel(head));
  EXPECT_EQ(q.next_time(), at(5));
}

TEST(EventQueue, InternLabelReturnsStablePointers) {
  const std::string dynamic = "computed-" + std::to_string(42);
  const char* a = intern_label(dynamic);
  const char* b = intern_label("computed-42");
  EXPECT_STREQ(a, "computed-42");
  EXPECT_EQ(a, b);  // same content interns to the same pointer

  EventQueue q;
  q.schedule(at(1), EventPriority::kFramework, [] {}, a);
  EXPECT_STREQ(q.pop().label, "computed-42");
}

// Reference model of the pre-heap implementation: a std::map ordered by the
// same (time, priority, seq) key. The differential test drives both through
// an identical randomized schedule/cancel/pop history and requires the
// exact same fire order and cancel outcomes.
class MapModel {
 public:
  std::uint64_t schedule(std::int64_t when_us, int priority, int payload) {
    const Key key{when_us, priority, next_seq_++};
    events_.emplace(key, payload);
    index_.emplace(key.seq, key);
    return key.seq;
  }

  bool cancel(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    events_.erase(it->second);
    index_.erase(it);
    return true;
  }

  bool empty() const { return events_.empty(); }

  std::pair<std::int64_t, int> pop() {
    const auto it = events_.begin();
    std::pair<std::int64_t, int> out{it->first.when_us, it->second};
    index_.erase(it->first.seq);
    events_.erase(it);
    return out;
  }

 private:
  struct Key {
    std::int64_t when_us;
    int priority;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, int> events_;
  std::map<std::uint64_t, Key> index_;
  std::uint64_t next_seq_ = 1;
};

// One randomized schedule/cancel/pop mix. `dice` below `schedule_cut`
// schedules `1..max_fan` events sharing one key, below `cancel_cut` cancels
// a random (possibly stale) handle, and otherwise pops.
struct Regime {
  const char* name;
  std::uint64_t seed;
  int ops;
  std::uint32_t schedule_cut;
  std::uint32_t cancel_cut;
  std::uint32_t time_range_us;
  std::uint32_t priorities;
  std::uint32_t max_fan;
};

void run_differential(const Regime& r) {
  SCOPED_TRACE(r.name);
  EventQueue q;
  MapModel model;
  Rng rng(r.seed);

  struct Live {
    EventId real;
    std::uint64_t model;
  };
  std::vector<Live> live;  // superset of pending events (may hold stale ids)
  std::vector<std::pair<std::int64_t, int>> fired_real;
  std::vector<std::pair<std::int64_t, int>> fired_model;

  int payload = 0;
  std::size_t pending = 0;
  for (int op = 0; op < r.ops; ++op) {
    const std::uint32_t dice = rng.next_below(100);
    if (dice < r.schedule_cut || q.empty()) {
      const std::int64_t when_us = static_cast<std::int64_t>(rng.next_below(r.time_range_us));
      const int priority = static_cast<int>(rng.next_below(r.priorities));
      const std::uint32_t fan = r.max_fan > 1 ? 1 + rng.next_below(r.max_fan) : 1;
      for (std::uint32_t f = 0; f < fan; ++f) {
        const int p = payload++;
        const EventId real = q.schedule(
            TimePoint::from_us(when_us), static_cast<EventPriority>(priority),
            [&fired_real, when_us, p] { fired_real.emplace_back(when_us, p); });
        live.push_back({real, model.schedule(when_us, priority, p)});
        ++pending;
      }
    } else if (dice < r.cancel_cut && !live.empty()) {
      // Cancel a random (possibly already fired/cancelled) handle; both
      // implementations must agree on whether it was still pending.
      const std::size_t pick = rng.next_below(static_cast<std::uint32_t>(live.size()));
      const bool cancelled = q.cancel(live[pick].real);
      ASSERT_EQ(cancelled, model.cancel(live[pick].model)) << "op " << op;
      if (cancelled) --pending;
    } else {
      ASSERT_FALSE(model.empty());
      q.pop().callback();
      fired_model.push_back(model.pop());
      --pending;
      ASSERT_EQ(fired_real.size(), fired_model.size());
      ASSERT_EQ(fired_real.back(), fired_model.back()) << "op " << op;
    }
    ASSERT_EQ(q.size(), pending) << "live-count divergence at op " << op;
  }

  // Drain both completely: the remaining fire order must match too.
  while (!q.empty()) {
    q.pop().callback();
    fired_model.push_back(model.pop());
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired_real, fired_model);
}

TEST(EventQueue, RandomizedDifferentialAgainstMapModel) {
  const Regime regimes[] = {
      // Small time range + 4 priorities force heavy key ties, so the seq
      // tie-break is exercised constantly.
      {"mixed", 2024, 30'000, 50, 75, 64, 4, 1},
      // Schedule-dominated with spread-out times: thousands pending, so
      // sifts run through many heap levels.
      {"deep", 777, 40'000, 60, 75, 1u << 20, 4, 1},
      // Cancel-dominated: the heap stays shallow and full of tombstones,
      // so root pruning runs on most mutations.
      {"shallow tombstone-heavy", 778, 30'000, 15, 90, 64, 4, 1},
      // Up to 8 events per key in a tiny time range: big same-(time,
      // priority) groups must fire in insertion order.
      {"same-key groups", 779, 30'000, 45, 70, 8, 2, 8},
  };
  for (const Regime& r : regimes) run_differential(r);
}

// --------------------------------------------------------------------------
// save / restore
// --------------------------------------------------------------------------

constexpr std::uint32_t kSectionVersion = 1;

std::string save_queue(const EventQueue& q) {
  snapshot::Writer w;
  w.begin_section("queue", kSectionVersion);
  q.save(w);
  w.end_section();
  return w.finish();
}

void restore_queue(EventQueue& q, std::string bytes) {
  const snapshot::Reader reader(std::move(bytes));
  snapshot::SectionReader s = reader.section("queue", kSectionVersion);
  q.restore(s);
}

TEST(EventQueueSnapshot, RoundTripKeepsPopOrderAndSavesIdentically) {
  EventQueue original;
  std::vector<int> fired_original;
  std::vector<EventId> ids;
  std::vector<bool> pending;
  const auto schedule = [&](TimePoint when, EventPriority priority) {
    const int payload = static_cast<int>(ids.size());
    ids.push_back(original.schedule(
        when, priority, [&fired_original, payload] { fired_original.push_back(payload); },
        payload % 2 == 0 ? "even" : "odd"));
    pending.push_back(true);
  };
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    schedule(TimePoint::from_us(static_cast<std::int64_t>(rng.next_below(50))),
             static_cast<EventPriority>(rng.next_below(4)));
  }
  // Cancel a spread of events (most stay behind as tombstones), fire a few
  // so the slab has free slots, then schedule into recycled slots.
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(original.cancel(ids[i]));
    pending[i] = false;
  }
  for (int i = 0; i < 20; ++i) original.pop().callback();
  for (const int payload : fired_original) pending[static_cast<std::size_t>(payload)] = false;
  for (int i = 0; i < 10; ++i) schedule(TimePoint::from_us(60 + i), EventPriority::kApp);
  ASSERT_GT(original.slab_slots(), original.size());  // dead slots present

  const std::string snap = save_queue(original);
  EventQueue restored;
  restore_queue(restored, snap);
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_FALSE(restored.fully_bound());
  std::vector<int> fired_restored;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!pending[i]) continue;
    const int payload = static_cast<int>(i);
    restored.rebind(ids[i], [&fired_restored, payload] { fired_restored.push_back(payload); });
  }
  EXPECT_TRUE(restored.fully_bound());
  EXPECT_EQ(save_queue(restored), snap);

  fired_original.clear();
  while (!original.empty()) {
    ASSERT_FALSE(restored.empty());
    EventQueue::Fired a = original.pop();
    EventQueue::Fired b = restored.pop();
    EXPECT_EQ(a.when, b.when);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_STREQ(a.label, b.label);
    a.callback();
    b.callback();
  }
  EXPECT_TRUE(restored.empty());
  EXPECT_EQ(fired_restored, fired_original);
  EXPECT_FALSE(fired_restored.empty());
}

TEST(EventQueueSnapshot, RebindRejectsWrongGenerationAndDoubleBinding) {
  EventQueue original;
  const EventId stale = original.schedule(at(1), EventPriority::kFramework, [] {});
  original.pop();  // slot 0 recycled; its generation is bumped
  const EventId live = original.schedule(at(2), EventPriority::kFramework, [] {});
  ASSERT_EQ(stale.value & 0xffffffffu, live.value & 0xffffffffu);

  EventQueue restored;
  restore_queue(restored, save_queue(original));
  EXPECT_THROW(restored.rebind(stale, [] {}), std::logic_error);
  restored.rebind(live, [] {});
  EXPECT_THROW(restored.rebind(live, [] {}), std::logic_error);
  EXPECT_TRUE(restored.fully_bound());
}

// A hand-built queue image, encoded field by field exactly as
// EventQueue::save lays it out, so each case can break one invariant. The
// default holds two live events (slot 0 at t=1, slot 1 at t=2) and one
// free slot.
constexpr std::uint32_t kNil = 0xffffffffu;
struct ImageNode {
  std::int64_t when_us;
  std::uint64_t order;  // priority << 60 | seq
  std::uint32_t slot;
};
struct ImageSlot {
  std::uint32_t generation;
  std::uint32_t next_free;
  bool armed;
};
struct QueueImage {
  std::vector<ImageNode> heap = {{1, 1, 0}, {2, 2, 1}};
  std::vector<ImageSlot> slots = {{1, kNil, true}, {1, kNil, true}, {2, kNil, false}};
  std::uint32_t free_head = 2;
  std::uint64_t next_seq = 3;
  std::uint64_t live = 2;
};

std::string encode(const QueueImage& img) {
  snapshot::Writer w;
  w.begin_section("queue", kSectionVersion);
  w.u64(img.heap.size());
  for (const ImageNode& n : img.heap) {
    w.i64(n.when_us);
    w.u64(n.order);
    w.u32(n.slot);
  }
  w.u64(img.slots.size());
  for (const ImageSlot& s : img.slots) {
    w.str("");
    w.u32(s.generation);
    w.u32(s.next_free);
    w.boolean(s.armed);
  }
  w.u32(img.free_head);
  w.u64(img.next_seq);
  w.u64(img.live);
  w.end_section();
  return w.finish();
}

TEST(EventQueueSnapshot, RestoreRejectsArmedSlotCarryingAFreeListLink) {
  // A live slot has no free-list link (save writes kNil for it); a link on
  // an armed slot is a corrupt image even when nothing else is wrong.
  QueueImage img;
  img.slots[0].next_free = 2;
  EventQueue q;
  try {
    restore_queue(q, encode(img));
    ADD_FAILURE() << "restore accepted an armed slot with a free-list link";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("armed slot carries a free-list link"),
              std::string::npos)
        << e.what();
  }
}

TEST(EventQueueSnapshot, RestoreRejectsStructurallyBadImages) {
  {  // Unmutated, the image is valid: each case below breaks one invariant.
    EventQueue q;
    restore_queue(q, encode(QueueImage{}));
    EXPECT_EQ(q.next_time(), TimePoint::from_us(1));
  }
  struct Case {
    const char* why;  // expected in the check message
    void (*mutate)(QueueImage&);
  };
  const Case cases[] = {
      {"heap order violated", [](QueueImage& i) { std::swap(i.heap[0], i.heap[1]); }},
      {"slot referenced by two heap nodes",
       [](QueueImage& i) {
         i.heap[1].slot = 0;
         i.slots[1].armed = false;
         i.live = 1;
       }},
      {"heap node names a free slot",
       [](QueueImage& i) {
         i.heap[1].slot = 2;
         i.slots[1].armed = false;
         i.slots[2].armed = true;
       }},
      {"armed slot has no heap node",
       [](QueueImage& i) {
         i.free_head = kNil;
         i.slots[2].armed = true;
         i.live = 3;
       }},
      {"heap root is a tombstone",
       [](QueueImage& i) {
         i.slots[0].armed = false;
         i.live = 1;
       }},
      {"sequence counter out of range", [](QueueImage& i) { i.next_seq = 1ull << 60; }},
  };
  for (const Case& c : cases) {
    QueueImage img;
    c.mutate(img);
    EventQueue q;
    try {
      restore_queue(q, encode(img));
      ADD_FAILURE() << "restore accepted an image with: " << c.why;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace simty::sim
