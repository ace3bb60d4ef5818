#pragma once
// Queue entries ("batches"): sets of alarms that will be delivered together.
//
// Entry attributes follow §3.2.1 exactly: the entry window (resp. grace)
// interval is the intersection of its members' window (resp. grace)
// intervals, the hardware set is the union of members' sets, an entry is
// perceptible iff any member is, and its delivery time is the earliest
// point of its window (perceptible) or grace (imperceptible) interval.
// The window intersection may legitimately be empty for an imperceptible
// entry whose members were aligned via medium time similarity.

#include <vector>

#include "alarm/alarm.hpp"
#include "common/interval.hpp"
#include "hw/component.hpp"

namespace simty::alarm {

/// A queue entry of alarms aligned for joint delivery. Holds non-owning
/// pointers into the manager's alarm registry.
class Batch {
 public:
  Batch() = default;

  explicit Batch(Alarm* first);

  /// Adds a member and folds it into the cached attributes incrementally:
  /// interval intersection, hardware-set union, perceptibility OR, and
  /// expected-hold max are all monotone under member addition, so no member
  /// iteration is needed (O(1) modulo the duplicate-membership check).
  void add(Alarm* a);

  /// Removes a member by id; returns false if absent.
  bool remove(AlarmId id);

  bool contains(AlarmId id) const;
  bool empty() const { return members_.empty(); }
  std::size_t size() const { return members_.size(); }
  const std::vector<Alarm*>& members() const { return members_; }

  /// Intersection of member window intervals; may be empty (see above).
  const TimeInterval& window_interval() const { return window_; }

  /// Intersection of member grace intervals; non-empty for any entry built
  /// by an applicable alignment (asserted by the manager).
  const TimeInterval& grace_interval() const { return grace_; }

  /// Union of members' learned hardware sets.
  hw::ComponentSet hardware() const { return hardware_; }

  /// True iff any member is perceptible.
  bool perceptible() const { return perceptible_; }

  /// Earliest point of the window interval for perceptible entries, of the
  /// grace interval otherwise (§3.2.1): the queue's sort key. It is derived
  /// whenever the members change (add/remove/refresh/clear), so reading it
  /// is one predictable branch and a field load. An entry without one
  /// (empty; perceptible without a window overlap; imperceptible without a
  /// grace overlap) is recorded as such at that point and throws
  /// std::logic_error here, on read; add() itself accepts such a member.
  TimePoint delivery_time() const {
    if (!has_delivery_time_) [[unlikely]] check_delivery_time();
    return delivery_time_;
  }

  /// True when the cached delivery key (or its absence) equals the one
  /// refresh() would derive from the members' current intervals. A member
  /// rescheduled or re-profiled while queued, without a refresh(), makes it
  /// false; AlarmManager::check_invariants() reports such an entry.
  bool delivery_key_current() const;

  /// Largest expected hold among members (duration-similarity extension).
  Duration expected_hold() const { return expected_hold_; }

  /// Recomputes cached attributes from the members (call after member
  /// alarms are rescheduled or re-profiled; removal also rebuilds, since
  /// the aggregates are not invertible).
  void refresh();

  /// Drops every member and resets the attributes to those of a
  /// default-constructed batch, keeping the member storage: the manager
  /// recycles emptied entries instead of allocating new ones.
  void clear();

 private:
  /// Derives the delivery key from the folded attributes.
  void settle_delivery_time();
  /// The SIMTY_CHECKs a keyless entry fails, out of line.
  [[gnu::cold]] void check_delivery_time() const;

  std::vector<Alarm*> members_;
  TimeInterval window_ = TimeInterval::empty();
  TimeInterval grace_ = TimeInterval::empty();
  TimePoint delivery_time_;
  hw::ComponentSet hardware_;
  bool perceptible_ = false;
  bool has_delivery_time_ = false;
  Duration expected_hold_ = Duration::zero();
};

}  // namespace simty::alarm
