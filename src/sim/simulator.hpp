#pragma once
// Discrete-event simulator core: a virtual clock plus an event loop.
//
// The whole standby experiment runs inside one Simulator: the device model,
// the alarm manager, the resident apps, and the power monitor all schedule
// callbacks here. Single-threaded by design — determinism is what lets the
// paper's "three runs, averaged" protocol be exactly reproducible.

#include <cstdint>

#include <utility>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace simty::sim {

/// Event loop with a virtual microsecond clock.
class Simulator {
 public:
  Simulator() = default;

  /// Backs the event queue's storage with `arena` (see EventQueue): the
  /// arena must outlive the simulator and must not be reset while it lives.
  explicit Simulator(common::Arena* arena) : queue_(arena) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at the origin and only moves forward.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()). `label`
  /// must outlive the event: pass a string literal, or intern_label() for
  /// a computed one. The callable is forwarded to its queue slot and built
  /// there (see EventQueue::schedule).
  template <typename F>
  EventId schedule_at(TimePoint when, F&& cb,
                      EventPriority priority = EventPriority::kFramework,
                      const char* label = "") {
    SIMTY_CHECK_MSG(when >= now_, "Simulator::schedule_at: time in the past");
    return queue_.schedule(when, priority, std::forward<F>(cb), label);
  }

  /// Schedules `cb` after a non-negative delay from now().
  template <typename F>
  EventId schedule_after(Duration delay, F&& cb,
                         EventPriority priority = EventPriority::kFramework,
                         const char* label = "") {
    SIMTY_CHECK_MSG(!delay.is_negative(), "Simulator::schedule_after: negative delay");
    return queue_.schedule(now_ + delay, priority, std::forward<F>(cb), label);
  }

  /// Cancels a pending event; false if it already ran or was cancelled.
  bool cancel(EventId id);

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// even if the queue drains early (so end-of-run power integration covers
  /// the full horizon).
  void run_until(TimePoint until);

  /// Runs until the event queue is empty.
  void run_all();

  /// Runs exactly one event if any is pending; returns false on empty queue.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Serializes the clock, event counter, and the complete queue structure
  /// into the writer's open section (see EventQueue::save — callbacks are
  /// not serialized and must be rebind()-ed after restore()).
  void save(snapshot::Writer& w) const;

  /// Restores state written by save(), replacing any queue contents.
  void restore(snapshot::SectionReader& s);

  /// Re-attaches the callback of a restored armed event.
  void rebind(EventId id, EventFn cb) { queue_.rebind(id, std::move(cb)); }

  /// True when every restored live event has been rebound.
  bool fully_bound() const { return queue_.fully_bound(); }

 private:
  TimePoint now_ = TimePoint::origin();
  EventQueue queue_;
  std::uint64_t events_processed_ = 0;
};

}  // namespace simty::sim
