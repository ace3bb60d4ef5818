#include "alarm/alarm_manager.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::alarm {

AlarmManager::AlarmManager(sim::Simulator& sim, hw::Device& device, hw::Rtc& rtc,
                           hw::WakelockManager& wakelocks,
                           std::unique_ptr<AlignmentPolicy> policy)
    : sim_(sim), device_(device), rtc_(rtc), wakelocks_(wakelocks),
      policy_(std::move(policy)) {
  SIMTY_CHECK(policy_ != nullptr);
  device_.add_wake_listener([this](hw::WakeReason r) { on_device_wake(r); });
}

AlarmId AlarmManager::register_alarm(AlarmSpec spec, TimePoint first_nominal,
                                     DeliveryHandler handler) {
  spec.validate();
  SIMTY_CHECK(static_cast<bool>(handler));
  SIMTY_CHECK_MSG(first_nominal >= sim_.now(),
                  "alarm nominal time must not be in the past");
  const AlarmId id{next_id_++};
  Alarm* raw = adopt(Alarm(id, std::move(spec), first_nominal), std::move(handler));
  ++stats_.registrations;
  insert(raw);
  return id;
}

Alarm* AlarmManager::adopt(Alarm alarm, DeliveryHandler handler) {
  SIMTY_CHECK_MSG(registry_.empty() || registry_.back().id < alarm.id().value,
                  "alarm ids must be registered in ascending order");
  std::uint32_t idx;
  if (free_records_.empty()) {
    idx = static_cast<std::uint32_t>(records_.size());
    records_.push_back(std::make_unique<Record>(std::move(alarm)));
  } else {
    idx = free_records_.back();
    free_records_.pop_back();
    records_[idx]->alarm = std::move(alarm);
  }
  Record& rec = *records_[idx];
  rec.alarm.record_ = idx;
  rec.handler = std::move(handler);
  rec.pending = 0;
  rec.registered = true;
  registry_.push_back(IdEntry{rec.alarm.id().value, idx});
  return &rec.alarm;
}

AlarmManager::IdIter AlarmManager::lower_bound_id(std::uint64_t id) const {
  return std::lower_bound(
      registry_.begin(), registry_.end(), id,
      [](const IdEntry& e, std::uint64_t value) { return e.id < value; });
}

AlarmManager::IdIter AlarmManager::find_entry(std::uint64_t id) const {
  const IdIter it = lower_bound_id(id);
  return it != registry_.end() && it->id == id ? it : registry_.end();
}

void AlarmManager::set(AlarmId id, TimePoint nominal) {
  const auto it = find_entry(id.value);
  SIMTY_CHECK_MSG(it != registry_.end(), "set: unknown alarm");
  SIMTY_CHECK_MSG(nominal >= sim_.now(), "set: nominal time in the past");
  Record& rec = *records_[it->record];
  rec.moved = true;
  Alarm* a = &rec.alarm;
  remove_from_queue(id);
  a->reschedule(nominal);
  insert(a);
}

void AlarmManager::cancel(AlarmId id) {
  const IdIter it = find_entry(id.value);
  SIMTY_CHECK_MSG(it != registry_.end(), "cancel: unknown alarm");
  // Realignment reinserts the other members but never registers or
  // unregisters, so `it` stays valid.
  remove_from_queue(id);
  unregister(it);
  reprogram_rtc();
  schedule_nonwakeup_check();
}

std::size_t AlarmManager::cancel_by_tag(const std::string& prefix) {
  std::vector<AlarmId> victims;
  for (const IdEntry& e : registry_) {
    if (records_[e.record]->alarm.spec().tag.rfind(prefix, 0) == 0) {
      victims.push_back(AlarmId{e.id});
    }
  }
  for (const AlarmId id : victims) cancel(id);
  return victims.size();
}

void AlarmManager::set_policy(std::unique_ptr<AlignmentPolicy> policy) {
  SIMTY_CHECK(policy != nullptr);
  policy_ = std::move(policy);
  rebatch_all();
}

void AlarmManager::rebatch_all() {
  // Pull every queued alarm out, then reinsert in nominal order under the
  // current policy — Android's rebatchAllAlarms.
  std::vector<Alarm*> alarms;
  for (auto& q : queues_) {
    for (auto& batch : q) {
      for (Alarm* a : batch->members()) alarms.push_back(a);
      recycle(std::move(batch));
    }
    q.clear();
  }
  std::sort(alarms.begin(), alarms.end(), [](const Alarm* x, const Alarm* y) {
    return x->nominal() < y->nominal();
  });
  ++stats_.realignments;
  SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "rebatch-all",
                      static_cast<std::int64_t>(alarms.size()));
  for (Alarm* a : alarms) insert(a);
  reprogram_rtc();
  schedule_nonwakeup_check();
}

bool AlarmManager::is_registered(AlarmId id) const {
  return find_entry(id.value) != registry_.end();
}

const Alarm* AlarmManager::find(AlarmId id) const {
  const auto it = find_entry(id.value);
  return it == registry_.end() ? nullptr : &records_[it->record]->alarm;
}

void AlarmManager::add_delivery_observer(DeliveryObserver observer) {
  SIMTY_CHECK(static_cast<bool>(observer));
  observers_.push_back(std::move(observer));
}

void AlarmManager::add_session_observer(SessionObserver observer) {
  SIMTY_CHECK(static_cast<bool>(observer));
  session_observers_.push_back(std::move(observer));
}

void AlarmManager::set_delivery_gate(DeliveryGate gate) {
  delivery_gate_ = std::move(gate);
  reprogram_rtc();
}

const std::vector<std::unique_ptr<Batch>>& AlarmManager::queue(AlarmKind kind) const {
  return queues_[static_cast<std::size_t>(kind)];
}

std::vector<std::unique_ptr<Batch>>& AlarmManager::queue_ref(AlarmKind kind) {
  return queues_[static_cast<std::size_t>(kind)];
}

void AlarmManager::insert(Alarm* a) {
  auto& q = queue_ref(a->spec().kind);
  // Selection is the policy's linear scan of `q`: the instant marks one
  // placement decision and carries the number of entries it scans.
  SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-candidates",
                      static_cast<std::int64_t>(q.size()));
  const std::optional<std::size_t> slot = policy_->select_batch(*a, q);
  if (slot) {
    SIMTY_CHECK(*slot < q.size());
    q[*slot]->add(a);
    SIMTY_CHECK_MSG(!q[*slot]->grace_interval().is_empty(),
                    "policy joined an entry with no grace overlap");
    SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-join",
                        static_cast<std::int64_t>(q[*slot]->size()));
    reposition(q, *slot);
  } else {
    // New singleton entry: a stable_sort would place it after every entry
    // with an equal delivery time (it was appended last), i.e. upper_bound.
    std::unique_ptr<Batch> batch = make_batch(a);
    const TimePoint t = batch->delivery_time();
    const auto pos = std::upper_bound(
        q.begin(), q.end(), t, [](TimePoint value, const std::unique_ptr<Batch>& b) {
          return value < b->delivery_time();
        });
    q.insert(pos, std::move(batch));
    SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-create",
                        static_cast<std::int64_t>(q.size()));
  }
  if (slow_queue_checks_) sort_queue(a->spec().kind);
  if (a->spec().kind == AlarmKind::kWakeup) {
    reprogram_rtc();
  } else {
    schedule_nonwakeup_check();
  }
}

bool AlarmManager::remove_from_queue(AlarmId id) {
  for (auto& q : queues_) {
    const auto it = std::find_if(q.begin(), q.end(), [&](const auto& b) {
      return b->contains(id);
    });
    if (it == q.end()) continue;

    // Realignment (§2.1): pull the whole entry out and reinsert the other
    // members in nominal order; the caller reinserts the target alarm.
    std::unique_ptr<Batch> batch = std::move(*it);
    q.erase(it);
    batch->remove(id);
    if (!batch->empty()) {
      ++stats_.realignments;
      SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-split",
                          static_cast<std::int64_t>(batch->size()));
      std::vector<Alarm*> members = batch->members();
      recycle(std::move(batch));
      std::sort(members.begin(), members.end(), [](const Alarm* x, const Alarm* y) {
        return x->nominal() < y->nominal();
      });
      for (Alarm* m : members) insert(m);
    } else {
      recycle(std::move(batch));
    }
    reprogram_rtc();
    schedule_nonwakeup_check();
    return true;
  }
  return false;
}

std::unique_ptr<Batch> AlarmManager::make_batch(Alarm* first) {
  if (spare_batches_.empty()) return std::make_unique<Batch>(first);
  std::unique_ptr<Batch> batch = std::move(spare_batches_.back());
  spare_batches_.pop_back();
  batch->add(first);
  return batch;
}

void AlarmManager::recycle(std::unique_ptr<Batch> batch) {
  batch->clear();
  spare_batches_.push_back(std::move(batch));
}

void AlarmManager::release_pending(std::uint32_t record) {
  Record& rec = *records_[record];
  SIMTY_CHECK_MSG(rec.pending > 0, "wakelock acquisition for an unknown alarm");
  if (--rec.pending > 0 || rec.registered) return;
  // The last reader of a parked record is done: free it, keeping its Alarm
  // object for the next registration.
  rec.handler = nullptr;
  free_records_.push_back(record);
}

void AlarmManager::unregister(IdIter entry) {
  const std::uint32_t idx = entry->record;
  registry_.erase(entry);
  Record& rec = *records_[idx];
  rec.registered = false;
  if (rec.pending > 0) return;  // parked until release_pending drains it
  rec.handler = nullptr;
  free_records_.push_back(idx);
}

void AlarmManager::reposition(std::vector<std::unique_ptr<Batch>>& q,
                              std::size_t index) {
  // The queue was sorted before q[index] changed key, so at most this one
  // entry is out of place. Moving it to upper_bound (key decreased) or
  // lower_bound (key increased) of the others reproduces exactly what the
  // old full stable_sort produced: every equal-key entry was on the side
  // the bound preserves (the array was sorted, so equal keys could only
  // sit before a decreased key / after an increased one), and stable_sort
  // keeps relative order with all of them.
  const TimePoint t = q[index]->delivery_time();
  if (index > 0 && q[index - 1]->delivery_time() > t) {
    const auto pos = std::upper_bound(
        q.begin(), q.begin() + static_cast<std::ptrdiff_t>(index), t,
        [](TimePoint value, const std::unique_ptr<Batch>& b) {
          return value < b->delivery_time();
        });
    std::rotate(pos, q.begin() + static_cast<std::ptrdiff_t>(index),
                q.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  } else if (index + 1 < q.size() && q[index + 1]->delivery_time() < t) {
    const auto pos = std::lower_bound(
        q.begin() + static_cast<std::ptrdiff_t>(index) + 1, q.end(), t,
        [](const std::unique_ptr<Batch>& b, TimePoint value) {
          return b->delivery_time() < value;
        });
    std::rotate(q.begin() + static_cast<std::ptrdiff_t>(index),
                q.begin() + static_cast<std::ptrdiff_t>(index) + 1, pos);
  }
}

void AlarmManager::sort_queue(AlarmKind kind) const {
  const auto& q = queue(kind);
  std::vector<const Batch*> expected;
  expected.reserve(q.size());
  for (const auto& b : q) {
    SIMTY_CHECK_MSG(b->delivery_key_current(),
                    "cached delivery key differs from its members'");
    expected.push_back(b.get());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Batch* x, const Batch* y) {
                     return x->delivery_time() < y->delivery_time();
                   });
  for (std::size_t i = 0; i < q.size(); ++i) {
    SIMTY_CHECK_MSG(expected[i] == q[i].get(),
                    "incremental queue maintenance diverged from stable_sort");
  }
}

void AlarmManager::reprogram_rtc() {
  const auto& q = queue(AlarmKind::kWakeup);
  if (q.empty()) {
    rtc_.clear();
    return;
  }
  TimePoint head = std::max(q.front()->delivery_time(), sim_.now());
  if (delivery_gate_) {
    const TimePoint gated = delivery_gate_(head);
    SIMTY_CHECK_MSG(gated >= head, "delivery gate must not advance wakeups");
    head = gated;
  }
  if (rtc_.programmed() == head) return;
  rtc_.program(head, [this] { deliver_due(AlarmKind::kWakeup); });
}

void AlarmManager::schedule_nonwakeup_check() {
  if (nonwakeup_check_) {
    sim_.cancel(*nonwakeup_check_);
    nonwakeup_check_.reset();
  }
  // Non-wakeup alarms are only delivered while the device is awake for some
  // other reason (§2.1).
  if (device_.state() != hw::DeviceState::kAwake) return;
  const auto& q = queue(AlarmKind::kNonWakeup);
  if (q.empty()) return;
  const TimePoint head = std::max(q.front()->delivery_time(), sim_.now());
  nonwakeup_check_ = sim_.schedule_at(
      head,
      [this] {
        nonwakeup_check_.reset();
        if (device_.state() == hw::DeviceState::kAwake) {
          deliver_due(AlarmKind::kNonWakeup);
        }
      },
      sim::EventPriority::kFramework, "nonwakeup-check");
}

void AlarmManager::deliver_due(AlarmKind kind) {
  auto& q = queue_ref(kind);
  const TimePoint now = sim_.now();
  while (!q.empty() && q.front()->delivery_time() <= now) {
    std::unique_ptr<Batch> batch = std::move(q.front());
    q.erase(q.begin());
    deliver_batch(std::move(batch));
  }
  if (kind == AlarmKind::kWakeup) {
    // The device is awake right now: flush any due non-wakeup work too.
    deliver_due(AlarmKind::kNonWakeup);
    reprogram_rtc();
  }
  schedule_nonwakeup_check();
}

void AlarmManager::deliver_batch(std::unique_ptr<Batch> batch) {
  SIMTY_CHECK(device_.state() == hw::DeviceState::kAwake);
  const TimePoint now = sim_.now();
  ++stats_.batches_delivered;
  SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kAlarm, "batch-deliver",
                      static_cast<std::int64_t>(batch->size()));

  // The framework holds a CPU wakelock for the whole joint session.
  device_.acquire_cpu_lock();

  // Per-component serialization chains: the first task's hold starts now;
  // each successor starts after serial_fraction of its predecessor's hold
  // (0 = perfect piggybacking, 1 = fully serialized).
  std::array<Duration, hw::kComponentCount> chain_offset{};
  const hw::PowerModel& pm = device_.power_model();
  Duration session_busy = Duration::zero();

  // Items are built only for a session observer; nothing else reads them.
  const bool record_items = !session_observers_.empty();
  session_.start = now;
  session_.caused_wakeup = device_.wakeup_count() != last_seen_wakeups_;
  session_.items.clear();
  last_seen_wakeups_ = device_.wakeup_count();

  // Every member is pinned until its own delivery ends: a handler that
  // cancels its own alarm, or a later member of this batch, parks that
  // record instead of freeing it — a registration could otherwise recycle
  // the Alarm object while this loop still holds it.
  for (Alarm* a : batch->members()) {
    Record& rec = *records_[a->record_];
    ++rec.pending;
    rec.moved = false;
  }

  for (Alarm* a : batch->members()) {
    Record& rec = *records_[a->record_];
    if (!rec.registered || rec.moved) {
      // An earlier handler of this batch cancelled this alarm, or set() it
      // to another time (it is queued there): not delivered now.
      release_pending(a->record_);
      continue;
    }
    const bool was_perceptible = a->perceptible();

    // App code may throw (the real framework survives crashing receivers);
    // a failed handler degrades to an empty task and the alarm keeps its
    // schedule — the crash must not take down the other batch members.
    TaskSpec task;
    try {
      task = rec.handler(*a, now);
    } catch (const std::exception& e) {
      ++stats_.handler_failures;
      task = TaskSpec{};
      SIMTY_WARN(str_format("handler for %s threw: %s", a->spec().tag.c_str(),
                            e.what()));
    }
    SIMTY_CHECK_MSG(!task.hold.is_negative(), "task hold must be >= 0");

    // Stagger this task's wakelocks on each component's chain.
    Duration task_end = Duration::zero();
    rec.pending += task.hardware.size();
    for (const hw::Component c : task.hardware.components()) {
      const auto ci = static_cast<std::size_t>(c);
      const Duration start = chain_offset[ci];
      const Duration end = start + task.hold;
      task_end = std::max(task_end, end);
      chain_offset[ci] = start + pm.component(c).serial_fraction * task.hold;

      sim_.schedule_at(
          now + start,
          [this, c, a, hold = task.hold] {
            const hw::WakelockId lock = wakelocks_.acquire(c, a->spec().tag);
            release_pending(a->record_);
            // try_release: a WakelockGuardian may have revoked the lock.
            sim_.schedule_after(hold,
                                [this, lock] { wakelocks_.try_release(lock); },
                                sim::EventPriority::kFramework, "wakelock-release");
          },
          sim::EventPriority::kFramework, "wakelock-acquire");
    }
    session_busy = std::max(session_busy, task_end);

    ++stats_.deliveries;
    a->record_delivery(task.hardware, task.hold);

    DeliveryRecord& record = record_;
    record.id = a->id();
    record.tag = a->spec().tag;
    record.app = a->spec().app;
    record.kind = a->spec().kind;
    record.mode = a->spec().mode;
    record.repeat_interval = a->spec().repeat_interval;
    record.nominal = a->nominal();
    record.delivered = now;
    record.window = a->window_interval();
    record.was_perceptible = was_perceptible;
    record.hardware_used = task.hardware;
    record.hold = task.hold;
    record.batch_size = batch->size();
    for (const DeliveryObserver& obs : observers_) obs(record);
    if (record_items) {
      session_.items.push_back(
          SessionItem{a->id(), a->spec().app, a->spec().tag, task.hardware, task.hold});
    }

    // Reinsertion of repeating alarms (§2.1): static repeating stays on its
    // nominal grid; dynamic repeating is re-anchored at the delivery time.
    if (!rec.registered || rec.moved) {
      // Its own handler cancelled the alarm (it stays gone) or re-set it
      // (it keeps that time): nothing to reinsert.
    } else if (a->spec().mode == RepeatMode::kOneShot) {
      unregister(find_entry(a->id().value));
    } else if (a->spec().mode == RepeatMode::kStatic) {
      TimePoint next = a->nominal() + a->spec().repeat_interval;
      while (next < now) next += a->spec().repeat_interval;
      a->reschedule(next);
      insert(a);
    } else {
      a->reschedule(now + a->spec().repeat_interval);
      insert(a);
    }
    release_pending(a->record_);
  }

  // Hold the CPU until every task completes, at least the handler floor.
  const Duration cpu_span = std::max(session_busy, pm.handler_floor);
  sim_.schedule_after(cpu_span, [this] { device_.release_cpu_lock(); },
                      sim::EventPriority::kFramework, "session-end");

  session_.cpu_session = cpu_span;
  for (const SessionObserver& obs : session_observers_) obs(session_);
  recycle(std::move(batch));
}

std::string AlarmManager::dump() const {
  std::string out = str_format("AlarmManager[%s] t=%.3fs alarms=%zu\n",
                               policy_->name().c_str(), sim_.now().seconds_f(),
                               registry_.size());
  for (const AlarmKind kind : {AlarmKind::kWakeup, AlarmKind::kNonWakeup}) {
    const auto& q = queue(kind);
    out += str_format("  %s queue: %zu entries\n", to_string(kind), q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Batch& b = *q[i];
      out += str_format(
          "    [%zu] deliver=%.3fs %s window=%s grace=%s hw=%s\n", i,
          b.delivery_time().seconds_f(),
          b.perceptible() ? "perceptible" : "imperceptible",
          b.window_interval().to_string().c_str(),
          b.grace_interval().to_string().c_str(), b.hardware().to_string().c_str());
      for (const Alarm* a : b.members()) {
        out += "      " + a->to_string() + "\n";
      }
    }
  }
  if (rtc_.programmed()) {
    out += str_format("  rtc: programmed at %.3fs\n", rtc_.programmed()->seconds_f());
  } else {
    out += "  rtc: idle\n";
  }
  return out;
}

std::vector<std::string> AlarmManager::check_invariants() const {
  std::vector<std::string> issues;
  std::map<std::uint64_t, int> seen;
  for (const AlarmKind kind : {AlarmKind::kWakeup, AlarmKind::kNonWakeup}) {
    const auto& q = queue(kind);
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Batch& b = *q[i];
      if (b.empty()) {
        issues.push_back(str_format("%s[%zu]: empty batch", to_string(kind), i));
        continue;
      }
      if (!b.delivery_key_current()) {
        issues.push_back(
            str_format("%s[%zu]: cached delivery key is stale", to_string(kind), i));
      }
      if (i > 0 && q[i - 1]->delivery_time() > b.delivery_time()) {
        issues.push_back(str_format("%s[%zu]: queue out of order", to_string(kind), i));
      }
      if (b.grace_interval().is_empty()) {
        issues.push_back(str_format("%s[%zu]: empty grace overlap", to_string(kind), i));
      }
      if (b.perceptible() && b.window_interval().is_empty()) {
        issues.push_back(
            str_format("%s[%zu]: perceptible entry without window overlap",
                       to_string(kind), i));
      }
      for (const Alarm* a : b.members()) {
        ++seen[a->id().value];
        if (find_entry(a->id().value) == registry_.end()) {
          issues.push_back("queued alarm not registered: " + a->spec().tag);
        }
        if (a->spec().kind != kind) {
          issues.push_back("alarm in wrong-kind queue: " + a->spec().tag);
        }
      }
    }
  }
  for (const auto& [id, count] : seen) {
    if (count > 1) {
      issues.push_back(str_format("alarm %llu queued %d times",
                                  static_cast<unsigned long long>(id), count));
    }
  }
  const auto& wq = queue(AlarmKind::kWakeup);
  if (!wq.empty()) {
    if (!rtc_.programmed()) {
      // Legal transient: the RTC already fired for the head batch and the
      // wake transition (or the delivery session) is still in flight; the
      // queue drains and the RTC is reprogrammed when it completes.
      if (device_.state() == hw::DeviceState::kAsleep &&
          wq.front()->delivery_time() > sim_.now()) {
        issues.push_back("wakeup queue non-empty but RTC idle");
      }
    } else if (*rtc_.programmed() <
               std::min(wq.front()->delivery_time(), sim_.now())) {
      issues.push_back("RTC programmed before the head's delivery time");
    }
  }
  return issues;
}

void AlarmManager::on_device_wake(hw::WakeReason) {
  // Whatever woke the device, due non-wakeup alarms can now be delivered
  // (§2.1: "postponed to the next time that the device is woken").
  deliver_due(AlarmKind::kNonWakeup);
}

void AlarmManager::save(snapshot::Writer& w) const {
  SIMTY_CHECK_MSG(std::none_of(records_.begin(), records_.end(),
                               [](const std::unique_ptr<Record>& r) {
                                 return !r->registered && r->pending > 0;
                               }),
                  "AlarmManager::save: wakelock acquisitions still pending");
  w.u64(next_id_);
  w.u64(last_seen_wakeups_);
  w.u64(stats_.registrations);
  w.u64(stats_.deliveries);
  w.u64(stats_.batches_delivered);
  w.u64(stats_.realignments);
  w.u64(stats_.handler_failures);
  w.u64(registry_.size());
  for (const IdEntry& e : registry_) records_[e.record]->alarm.save(w);
  for (const AlarmKind kind : {AlarmKind::kWakeup, AlarmKind::kNonWakeup}) {
    const auto& q = queue(kind);
    w.u64(q.size());
    for (const auto& batch : q) {
      w.u64(batch->size());
      for (const Alarm* a : batch->members()) w.u64(a->id().value);
    }
  }
  w.boolean(nonwakeup_check_.has_value());
  if (nonwakeup_check_) w.u64(nonwakeup_check_->value);
}

void AlarmManager::restore(snapshot::SectionReader& s,
                           const HandlerResolver& resolver) {
  SIMTY_CHECK_MSG(static_cast<bool>(resolver),
                  "AlarmManager::restore: handler resolver required");
  records_.clear();
  free_records_.clear();
  registry_.clear();
  for (auto& q : queues_) q.clear();
  nonwakeup_check_.reset();

  next_id_ = s.u64();
  SIMTY_CHECK_MSG(next_id_ >= 1, "AlarmManager::restore: bad id counter");
  last_seen_wakeups_ = s.u64();
  stats_.registrations = s.u64();
  stats_.deliveries = s.u64();
  stats_.batches_delivered = s.u64();
  stats_.realignments = s.u64();
  stats_.handler_failures = s.u64();

  const std::uint64_t alarm_count = s.u64();
  s.check_count(alarm_count, 88);  // fixed fields + minimal tag string
  for (std::uint64_t i = 0; i < alarm_count; ++i) {
    std::unique_ptr<Alarm> alarm = Alarm::restore(s);
    const std::uint64_t id = alarm->id().value;
    SIMTY_CHECK_MSG(id != 0 && id < next_id_,
                    "AlarmManager::restore: alarm id out of range");
    DeliveryHandler handler = resolver(alarm->spec().app, alarm->spec().tag);
    SIMTY_CHECK_MSG(static_cast<bool>(handler),
                    "AlarmManager::restore: resolver has no handler for alarm");
    const IdIter pos = lower_bound_id(id);
    SIMTY_CHECK_MSG(pos == registry_.end() || pos->id != id,
                    "AlarmManager::restore: duplicate alarm id");
    const auto idx = static_cast<std::uint32_t>(records_.size());
    registry_.insert(pos, IdEntry{id, idx});
    records_.push_back(std::make_unique<Record>(std::move(*alarm)));
    Record& rec = *records_.back();
    rec.alarm.record_ = idx;
    rec.handler = std::move(handler);
    rec.registered = true;
  }

  std::map<std::uint64_t, int> queued;
  for (const AlarmKind kind : {AlarmKind::kWakeup, AlarmKind::kNonWakeup}) {
    auto& q = queue_ref(kind);
    const std::uint64_t batch_count = s.u64();
    s.check_count(batch_count, 18);  // member count + at least one member id
    for (std::uint64_t b = 0; b < batch_count; ++b) {
      const std::uint64_t member_count = s.u64();
      SIMTY_CHECK_MSG(member_count > 0, "AlarmManager::restore: empty batch");
      s.check_count(member_count, 9);
      std::unique_ptr<Batch> batch;
      for (std::uint64_t m = 0; m < member_count; ++m) {
        const std::uint64_t id = s.u64();
        const auto it = find_entry(id);
        SIMTY_CHECK_MSG(it != registry_.end(),
                        "AlarmManager::restore: queued alarm not registered");
        Alarm* a = &records_[it->record]->alarm;
        SIMTY_CHECK_MSG(a->spec().kind == kind,
                        "AlarmManager::restore: alarm in wrong-kind queue");
        SIMTY_CHECK_MSG(queued[id]++ == 0,
                        "AlarmManager::restore: alarm queued twice");
        // Entry attributes are order-insensitive monotone folds of current
        // member state (queued members never mutate), so first+add rebuilds
        // the saved entry exactly; no placement decision re-runs.
        if (!batch) {
          batch = std::make_unique<Batch>(a);
        } else {
          batch->add(a);
        }
      }
      SIMTY_CHECK_MSG(!batch->grace_interval().is_empty(),
                      "AlarmManager::restore: entry without grace overlap");
      q.push_back(std::move(batch));
    }
    for (std::size_t i = 1; i < q.size(); ++i) {
      SIMTY_CHECK_MSG(q[i - 1]->delivery_time() <= q[i]->delivery_time(),
                      "AlarmManager::restore: queue out of order");
    }
  }

  if (s.boolean()) {
    const std::uint64_t event = s.u64();
    SIMTY_CHECK_MSG(event != 0,
                    "AlarmManager::restore: null non-wakeup check event");
    nonwakeup_check_ = sim::EventId{event};
    sim_.rebind(*nonwakeup_check_, [this] {
      nonwakeup_check_.reset();
      if (device_.state() == hw::DeviceState::kAwake) {
        deliver_due(AlarmKind::kNonWakeup);
      }
    });
  }
}

std::function<void()> AlarmManager::rtc_handler() {
  return [this] { deliver_due(AlarmKind::kWakeup); };
}

void AlarmManager::apply_grace_factor(double beta) {
  SIMTY_CHECK_MSG(beta >= 0.0 && beta < 1.0, "grace factor must lie in [0, 1)");
  for (const IdEntry& e : registry_) {
    Alarm& a = records_[e.record]->alarm;
    if (a.spec().mode == RepeatMode::kOneShot) continue;
    const Duration grace =
        std::max(a.spec().repeat_interval * beta, a.spec().window_length);
    a.set_grace_length(grace);
  }
  rebatch_all();
}

}  // namespace simty::alarm
