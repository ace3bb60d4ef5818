#include "alarm/alarm_manager.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "snapshot/snapshot.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;
using test::FrameworkFixture;

class AlarmManagerTest : public FrameworkFixture {};

TEST_F(AlarmManagerTest, DeliversOneShotAtNominalPlusWakeLatency) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::one_shot("reminder", AppId{1}, Duration::seconds(30)), at(100),
      noop_task());
  sim_.run_until(at(200));
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].id, id);
  EXPECT_EQ(deliveries_[0].delivered, at(100) + model_.wake_latency);
  EXPECT_EQ(deliveries_[0].nominal, at(100));
  // One-shot alarms are deregistered after delivery.
  EXPECT_FALSE(manager_->is_registered(id));
  EXPECT_EQ(device_->wakeup_count(), 1u);
}

TEST_F(AlarmManagerTest, StaticRepeatingStaysOnNominalGrid) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("tick", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.0, 0.5),
      at(300), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  sim_.run_until(at(1600));
  const auto recs = deliveries_of(id);
  ASSERT_EQ(recs.size(), 5u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].nominal, at(300) + Duration::seconds(300) * i);
  }
}

TEST_F(AlarmManagerTest, DynamicRepeatingAnchorsAtDeliveryTime) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kDynamic,
                           Duration::seconds(300), 0.0, 0.5),
      at(300), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  sim_.run_until(at(1000));
  const auto recs = deliveries_of(id);
  ASSERT_GE(recs.size(), 2u);
  // Each next nominal equals the previous delivery time + ReIn, so the
  // wake latency compounds: deliveries drift behind the fixed grid.
  EXPECT_EQ(recs[1].nominal, recs[0].delivered + Duration::seconds(300));
  EXPECT_GT(recs[1].nominal, at(600));
}

TEST_F(AlarmManagerTest, NativeAlignsOverlappingWindowsIntoOneWakeup) {
  init(std::make_unique<NativePolicy>());
  const AlarmId a = manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  const AlarmId b = manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  // Windows [100,550] and [300,750] overlap -> one entry, one wakeup, both
  // delivered at the entry delivery time (max nominal = 300).
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  sim_.run_until(at(400));
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(device_->wakeup_count(), 1u);
  EXPECT_EQ(deliveries_of(a)[0].delivered, deliveries_of(b)[0].delivered);
  EXPECT_EQ(deliveries_[0].delivered, at(300) + model_.wake_latency);
  EXPECT_EQ(deliveries_[0].batch_size, 2u);
}

TEST_F(AlarmManagerTest, ExactPolicyWakesPerAlarm) {
  init(std::make_unique<ExactPolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), noop_task());
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);
  sim_.run_until(at(400));
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(device_->wakeup_count(), 2u);
}

TEST_F(AlarmManagerTest, CancelRemovesFromQueueAndRegistry) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::one_shot("x", AppId{1}, Duration::seconds(30)), at(100),
      noop_task());
  manager_->cancel(id);
  EXPECT_FALSE(manager_->is_registered(id));
  EXPECT_TRUE(manager_->queue(AlarmKind::kWakeup).empty());
  sim_.run_until(at(200));
  EXPECT_TRUE(deliveries_.empty());
  EXPECT_EQ(device_->wakeup_count(), 0u);
  EXPECT_THROW(manager_->cancel(id), std::logic_error);
}

TEST_F(AlarmManagerTest, CancelDissolvesSharedEntry) {
  init(std::make_unique<NativePolicy>());
  const AlarmId a = manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  const AlarmId b = manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), noop_task());
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  manager_->cancel(a);
  // b remains, now alone; its delivery time reverts to its own nominal.
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup)[0]->delivery_time(), at(300));
  sim_.run_until(at(400));
  EXPECT_EQ(deliveries_of(b).size(), 1u);
  EXPECT_EQ(deliveries_of(a).size(), 0u);
}

TEST_F(AlarmManagerTest, SetReschedulesAndRealignsEntry) {
  init(std::make_unique<NativePolicy>());
  const AlarmId a = manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), noop_task());
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  // Re-registering a while it is still queued dissolves the shared entry
  // and reinserts both (§2.1's realignment).
  manager_->set(a, at(2000));
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);
  EXPECT_EQ(manager_->stats().realignments, 1u);
  EXPECT_EQ(manager_->find(a)->nominal(), at(2000));
}

TEST_F(AlarmManagerTest, QueueSortedByDeliveryTime) {
  init(std::make_unique<ExactPolicy>());
  manager_->register_alarm(AlarmSpec::one_shot("late", AppId{1}, Duration::seconds(10)),
                           at(500), noop_task());
  manager_->register_alarm(AlarmSpec::one_shot("early", AppId{1}, Duration::seconds(10)),
                           at(100), noop_task());
  const auto& q = manager_->queue(AlarmKind::kWakeup);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_LT(q[0]->delivery_time(), q[1]->delivery_time());
}

TEST_F(AlarmManagerTest, HardwareProfileLearnedAfterFirstDelivery) {
  init(std::make_unique<SimtyPolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.5, 0.9),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(3)));
  EXPECT_FALSE(manager_->find(id)->hardware_known());
  EXPECT_TRUE(manager_->find(id)->perceptible());  // footnote 5
  sim_.run_until(at(200));
  EXPECT_TRUE(manager_->find(id)->hardware_known());
  EXPECT_EQ(manager_->find(id)->hardware(), (ComponentSet{Component::kWifi}));
  EXPECT_FALSE(manager_->find(id)->perceptible());
}

TEST_F(AlarmManagerTest, DeliverySessionWakelocksHardware) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("scan", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(100), task(ComponentSet{Component::kWps}, Duration::seconds(10)));
  sim_.run_until(at(300));
  EXPECT_EQ(wakelocks_->usage(Component::kWps).cycles, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).on_time, Duration::seconds(10));
  // The device stayed awake for the task and went back to sleep after.
  EXPECT_EQ(device_->state(), hw::DeviceState::kAsleep);
}

TEST_F(AlarmManagerTest, AlignedIdenticalTasksShareOneHardwareCycle) {
  init(std::make_unique<NativePolicy>());
  // Two WPS alarms aligned into one entry: the WPS powers up once (its
  // serial fraction is 0 -> pure piggybacking).
  for (int i = 0; i < 2; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating("scan" + std::to_string(i), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(600), 0.75, 0.96),
        at(100 + i * 50), task(ComponentSet{Component::kWps}, Duration::seconds(10)));
  }
  sim_.run_until(at(400));
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(device_->wakeup_count(), 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).cycles, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).acquisitions, 2u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).on_time, Duration::seconds(10));
}

TEST_F(AlarmManagerTest, SerializedComponentExtendsOnTime) {
  init(std::make_unique<NativePolicy>());
  // Wi-Fi serializes 40% of each predecessor hold: two 5 s syncs aligned
  // hold the radio 5 * 0.4 + 5 = 7 s in one cycle.
  for (int i = 0; i < 2; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating("sync" + std::to_string(i), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(600), 0.75, 0.96),
        at(100 + i * 50), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  }
  sim_.run_until(at(400));
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).cycles, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).on_time, Duration::seconds(7));
}

// Holder text of every Wi-Fi lock held right now.
std::vector<std::string> wifi_holders(const hw::WakelockManager& wakelocks) {
  std::vector<std::string> out;
  for (const auto& h : wakelocks.held_locks()) {
    if (h.component == Component::kWifi) out.push_back(h.holder);
  }
  return out;
}

TEST_F(AlarmManagerTest, StaggeredAcquisitionOutlivesDeliveredOneShot) {
  init(std::make_unique<NativePolicy>());
  // Aligned with "sync", the one-shot's Wi-Fi lock starts 0.4 * 5 = 2 s into
  // the session, after its Alarm has been unregistered.
  manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  const AlarmId once = manager_->register_alarm(
      AlarmSpec::one_shot("a.one.shot.tag.longer.than.sso", AppId{2},
                          Duration::seconds(30)),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  sim_.run_until(at(101));
  ASSERT_EQ(deliveries_of(once).size(), 1u);
  EXPECT_FALSE(manager_->is_registered(once));
  EXPECT_EQ(wifi_holders(*wakelocks_), std::vector<std::string>{"sync"});

  sim_.run_until(deliveries_of(once)[0].delivered + Duration::seconds(3));
  EXPECT_EQ(wifi_holders(*wakelocks_),
            (std::vector<std::string>{"sync", "a.one.shot.tag.longer.than.sso"}));
  sim_.run_until(at(400));
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).on_time, Duration::seconds(7));
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(AlarmManagerTest, CheckInvariantsReportsAStaleDeliveryKey) {
  init(std::make_unique<SimtyPolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  ASSERT_TRUE(manager_->check_invariants().empty());
  // Moving a queued member behind the manager's back leaves its entry's
  // cached key at the old nominal time.
  manager_->queue(AlarmKind::kWakeup).front()->members().front()->reschedule(at(150));
  const std::vector<std::string> issues = manager_->check_invariants();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("cached delivery key"), std::string::npos) << issues[0];
}

TEST_F(AlarmManagerTest, SlowQueueChecksRejectAStaleDeliveryKey) {
  init(std::make_unique<SimtyPolicy>());
  manager_->set_slow_queue_checks(true);
  manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  manager_->queue(AlarmKind::kWakeup).front()->members().front()->reschedule(at(150));
  // The next insert's order check first re-derives every entry's key.
  EXPECT_THROW(manager_->register_alarm(
                   AlarmSpec::repeating("poll", AppId{2}, RepeatMode::kStatic,
                                        Duration::seconds(900), 0.75, 0.96),
                   at(5000), task(ComponentSet{Component::kWps}, Duration::seconds(2))),
               std::logic_error);
}

TEST_F(AlarmManagerTest, StaggeredAcquisitionOutlivesCancel) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("first", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  const AlarmId second = manager_->register_alarm(
      AlarmSpec::repeating("second.with.a.tag.longer.than.sso", AppId{2},
                           RepeatMode::kStatic, Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  sim_.run_until(at(101));
  ASSERT_EQ(deliveries_of(second).size(), 1u);
  // Cancelled before its staggered acquisition fires.
  manager_->cancel(second);
  sim_.run_until(deliveries_of(second)[0].delivered + Duration::seconds(3));
  EXPECT_EQ(wifi_holders(*wakelocks_),
            (std::vector<std::string>{"first", "second.with.a.tag.longer.than.sso"}));
  sim_.run_until(at(400));
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).on_time, Duration::seconds(7));
}

TEST_F(AlarmManagerTest, NonWakeupAlarmWaitsForDeviceWake) {
  init(std::make_unique<NativePolicy>());
  AlarmSpec spec = AlarmSpec::repeating("lazy", AppId{1}, RepeatMode::kStatic,
                                        Duration::seconds(600), 0.1, 0.9);
  spec.kind = AlarmKind::kNonWakeup;
  const AlarmId lazy = manager_->register_alarm(
      spec, at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  // Nothing wakes the device at 100; the non-wakeup alarm must wait.
  sim_.run_until(at(400));
  EXPECT_TRUE(deliveries_of(lazy).empty());
  // A wakeup alarm at 500 wakes the device; the pending non-wakeup alarm
  // rides along.
  manager_->register_alarm(AlarmSpec::one_shot("wake", AppId{2}, Duration::seconds(10)),
                           at(500), noop_task());
  sim_.run_until(at(600));
  const auto recs = deliveries_of(lazy);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].delivered, at(500) + model_.wake_latency);
}

TEST_F(AlarmManagerTest, NonWakeupAlarmDeliveredWhileDeviceAwake) {
  init(std::make_unique<NativePolicy>());
  // Keep the device awake from 100 with a long CPU-bound task.
  manager_->register_alarm(
      AlarmSpec::one_shot("busy", AppId{1}, Duration::seconds(5)), at(100),
      task(ComponentSet{Component::kWifi}, Duration::seconds(60)));
  AlarmSpec spec = AlarmSpec::repeating("lazy", AppId{2}, RepeatMode::kStatic,
                                        Duration::seconds(600), 0.1, 0.9);
  spec.kind = AlarmKind::kNonWakeup;
  const AlarmId lazy = manager_->register_alarm(spec, at(130), noop_task());
  sim_.run_until(at(200));
  const auto recs = deliveries_of(lazy);
  ASSERT_EQ(recs.size(), 1u);
  // Delivered at its own nominal time because the device was already awake.
  EXPECT_EQ(recs[0].delivered, at(130));
  EXPECT_EQ(device_->wakeup_count(), 1u);
}

TEST_F(AlarmManagerTest, WakeupAndNonWakeupQueuesAreSeparate) {
  init(std::make_unique<NativePolicy>());
  AlarmSpec nw = AlarmSpec::repeating("nw", AppId{1}, RepeatMode::kStatic,
                                      Duration::seconds(600), 0.75, 0.96);
  nw.kind = AlarmKind::kNonWakeup;
  manager_->register_alarm(nw, at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("w", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  // Overlapping windows but different kinds -> not batched together.
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  EXPECT_EQ(manager_->queue(AlarmKind::kNonWakeup).size(), 1u);
}

TEST_F(AlarmManagerTest, StatsCountRegistrationsAndDeliveries) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.0, 0.5),
      at(300), noop_task());
  sim_.run_until(at(1000));
  EXPECT_EQ(manager_->stats().registrations, 1u);
  EXPECT_EQ(manager_->stats().deliveries, 3u);  // 300, 600, 900 (+latency)
  EXPECT_EQ(manager_->stats().batches_delivered, 3u);
}

TEST_F(AlarmManagerTest, RegistrationInThePastRejected) {
  init(std::make_unique<NativePolicy>());
  sim_.schedule_at(at(100), [] {});
  sim_.run_all();
  EXPECT_THROW(manager_->register_alarm(
                   AlarmSpec::one_shot("x", AppId{1}, Duration::seconds(10)), at(50),
                   noop_task()),
               std::logic_error);
}

TEST_F(AlarmManagerTest, RtcTracksQueueHead) {
  init(std::make_unique<ExactPolicy>());
  manager_->register_alarm(AlarmSpec::one_shot("b", AppId{1}, Duration::seconds(10)),
                           at(500), noop_task());
  ASSERT_TRUE(rtc_->programmed().has_value());
  EXPECT_EQ(*rtc_->programmed(), at(500));
  // An earlier alarm re-targets the RTC.
  manager_->register_alarm(AlarmSpec::one_shot("a", AppId{1}, Duration::seconds(10)),
                           at(200), noop_task());
  EXPECT_EQ(*rtc_->programmed(), at(200));
  sim_.run_until(at(1000));
  // Queue drained -> RTC cleared.
  EXPECT_FALSE(rtc_->programmed().has_value());
}

// --- Registration handles: delivery reaches a record from its Alarm, and
// records (with their Alarm objects) are recycled.

TEST_F(AlarmManagerTest, HandlerMayCancelItsOwnAlarmDuringDelivery) {
  init(std::make_unique<NativePolicy>());
  const Alarm* replacement = nullptr;
  int calls = 0;
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("self.cancelling.tag.longer.than.sso", AppId{1},
                           RepeatMode::kStatic, Duration::seconds(600), 0.75, 0.96),
      at(100), [&](const Alarm& a, TimePoint now) {
        ++calls;
        manager_->cancel(a.id());
        // A registration inside the handler must not take the record of the
        // alarm still being delivered.
        const AlarmId next = manager_->register_alarm(
            AlarmSpec::one_shot("replacement", AppId{1}, Duration::seconds(30)),
            now + Duration::seconds(300), noop_task());
        replacement = manager_->find(next);
        EXPECT_NE(replacement, &a);
        return TaskSpec{ComponentSet{Component::kWifi}, Duration::seconds(5)};
      });
  sim_.run_until(at(2000));
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(deliveries_of(id).size(), 1u);
  EXPECT_EQ(deliveries_of(id)[0].tag, "self.cancelling.tag.longer.than.sso");
  EXPECT_FALSE(manager_->is_registered(id));
  // The task it returned still ran; the cancel only ends the schedule.
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).on_time, Duration::seconds(5));
  EXPECT_EQ(deliveries_.size(), 2u);  // itself and the replacement
  EXPECT_TRUE(manager_->queue(AlarmKind::kWakeup).empty());
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(AlarmManagerTest, HandlerMayResetItsOwnAlarmDuringDelivery) {
  init(std::make_unique<NativePolicy>());
  // A repeating alarm moved by its handler keeps the handler's time
  // instead of its grid slot, and is queued once.
  int repeating_calls = 0;
  const AlarmId repeating = manager_->register_alarm(
      AlarmSpec::repeating("moved", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), [&](const Alarm& a, TimePoint now) {
        if (++repeating_calls == 1) manager_->set(a.id(), now + Duration::seconds(50));
        EXPECT_TRUE(manager_->check_invariants().empty());
        return TaskSpec{};
      });
  // A one-shot re-armed by its handler stays registered and fires again.
  int one_shot_calls = 0;
  const AlarmId one_shot = manager_->register_alarm(
      AlarmSpec::one_shot("rearmed", AppId{2}, Duration::seconds(0)), at(3000),
      [&](const Alarm& a, TimePoint now) {
        if (++one_shot_calls == 1) manager_->set(a.id(), now + Duration::seconds(100));
        return TaskSpec{};
      });

  sim_.run_until(at(120));
  ASSERT_EQ(deliveries_of(repeating).size(), 1u);
  const TimePoint first = deliveries_of(repeating)[0].delivered;
  EXPECT_EQ(manager_->find(repeating)->nominal(), first + Duration::seconds(50));
  EXPECT_TRUE(manager_->check_invariants().empty());
  sim_.run_until(at(400));
  ASSERT_EQ(deliveries_of(repeating).size(), 2u);
  EXPECT_EQ(deliveries_of(repeating)[1].nominal, first + Duration::seconds(50));

  sim_.run_until(at(3010));
  ASSERT_EQ(deliveries_of(one_shot).size(), 1u);
  EXPECT_TRUE(manager_->is_registered(one_shot));
  sim_.run_until(at(3500));
  EXPECT_EQ(deliveries_of(one_shot).size(), 2u);
  EXPECT_FALSE(manager_->is_registered(one_shot));
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(AlarmManagerTest, HandlerMayCancelOrMoveLaterMembersOfItsBatch) {
  init(std::make_unique<NativePolicy>());
  const auto repeating = [](const char* tag) {
    return AlarmSpec::repeating(tag, AppId{1}, RepeatMode::kStatic,
                                Duration::seconds(600), 0.75, 0.96);
  };
  AlarmId cancelled{};
  AlarmId moved{};
  const Alarm* cancelled_alarm = nullptr;
  const Alarm* intruder_alarm = nullptr;
  const AlarmId first = manager_->register_alarm(
      repeating("first"), at(100), [&](const Alarm&, TimePoint now) {
        if (cancelled_alarm != nullptr) return TaskSpec{};  // later deliveries
        cancelled_alarm = manager_->find(cancelled);
        manager_->cancel(cancelled);
        manager_->set(moved, now + Duration::seconds(1000));
        const AlarmId intruder = manager_->register_alarm(
            AlarmSpec::one_shot("intruder", AppId{2}, Duration::seconds(30)),
            now + Duration::seconds(2000), noop_task());
        intruder_alarm = manager_->find(intruder);
        return TaskSpec{};
      });
  cancelled = manager_->register_alarm(repeating("cancelled"), at(120), noop_task());
  moved = manager_->register_alarm(repeating("moved"), at(140), noop_task());
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);  // one joint entry

  sim_.run_until(at(200));
  ASSERT_NE(cancelled_alarm, nullptr);
  // The cancelled member's record stayed pinned through the batch, so the
  // registration inside the handler could not recycle it.
  EXPECT_NE(intruder_alarm, cancelled_alarm);
  EXPECT_EQ(deliveries_of(first).size(), 1u);
  EXPECT_TRUE(deliveries_of(cancelled).empty());
  EXPECT_TRUE(deliveries_of(moved).empty());  // it now waits for its new time
  EXPECT_FALSE(manager_->is_registered(cancelled));
  EXPECT_TRUE(manager_->check_invariants().empty());

  sim_.run_until(at(1300));
  ASSERT_EQ(deliveries_of(moved).size(), 1u);
  EXPECT_EQ(deliveries_of(moved)[0].nominal,
            deliveries_of(first)[0].delivered + Duration::seconds(1000));
  EXPECT_TRUE(deliveries_of(cancelled).empty());
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(AlarmManagerTest, DeliveredOneShotKeepsItsRecordUntilItsLastAcquisition) {
  init(std::make_unique<NativePolicy>());
  // As in StaggeredAcquisitionOutlivesDeliveredOneShot: the one-shot's
  // Wi-Fi lock starts 2 s into the session.
  manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  const Alarm* delivered = nullptr;
  const AlarmId once = manager_->register_alarm(
      AlarmSpec::one_shot("a.one.shot.tag.longer.than.sso", AppId{2},
                          Duration::seconds(30)),
      at(100), [&delivered](const Alarm& a, TimePoint) {
        delivered = &a;
        return TaskSpec{ComponentSet{Component::kWifi}, Duration::seconds(5)};
      });
  sim_.run_until(at(101));
  ASSERT_NE(delivered, nullptr);
  ASSERT_FALSE(manager_->is_registered(once));

  // The acquisition is still pending, so a registration now gets a fresh
  // record, and the lock is still taken under the one-shot's tag.
  const AlarmId early = manager_->register_alarm(
      AlarmSpec::one_shot("early.registration.tag", AppId{3}, Duration::seconds(30)),
      at(1000), noop_task());
  EXPECT_NE(manager_->find(early), delivered);
  sim_.run_until(deliveries_of(once)[0].delivered + Duration::seconds(3));
  EXPECT_EQ(wifi_holders(*wakelocks_),
            (std::vector<std::string>{"sync", "a.one.shot.tag.longer.than.sso"}));

  // After the last acquisition the record is free, and the next
  // registration recycles it, Alarm object included.
  const AlarmId late = manager_->register_alarm(
      AlarmSpec::one_shot("late.registration.tag", AppId{3}, Duration::seconds(30)),
      at(1000), noop_task());
  EXPECT_EQ(manager_->find(late), delivered);
  EXPECT_EQ(manager_->find(late)->spec().tag, "late.registration.tag");
  EXPECT_TRUE(manager_->check_invariants().empty());
}

std::string save_alarms(const AlarmManager& manager) {
  snapshot::Writer w;
  w.begin_section("alarms", 1);
  manager.save(w);
  w.end_section();
  return w.finish();
}

TEST_F(AlarmManagerTest, SaveBytesIgnoreWhichRecordsChurnReused) {
  init(std::make_unique<ExactPolicy>());
  // The same alarms reach the same state twice: here a cancel comes before
  // the next registration, so that registration reuses the freed record;
  // in `other` it comes after. Ids, queue and stats match; only the
  // record layout differs, and save() must not show it.
  const AlarmSpec spec = AlarmSpec::one_shot("churn", AppId{1}, Duration::seconds(30));
  test::FrameworkHarness other;
  other.init(std::make_unique<ExactPolicy>());
  for (int round = 0; round < 4; ++round) {
    const std::int64_t t = 100 + 10 * round;
    const AlarmId a = manager_->register_alarm(spec, at(t), noop_task());
    const AlarmId b = other.manager_->register_alarm(spec, at(t), noop_task());
    manager_->cancel(a);
    manager_->register_alarm(spec, at(t + 5), noop_task());
    other.manager_->register_alarm(spec, at(t + 5), noop_task());
    other.manager_->cancel(b);
  }
  const std::string bytes = save_alarms(*manager_);
  EXPECT_EQ(bytes, save_alarms(*other.manager_));

  // A restore rebuilds the records in id order; saving that is the same.
  test::FrameworkHarness restored;
  restored.init(std::make_unique<ExactPolicy>());
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section("alarms", 1);
  restored.manager_->restore(s, [](AppId, const std::string&) { return noop_task(); });
  EXPECT_EQ(save_alarms(*restored.manager_), bytes);
}

TEST_F(AlarmManagerTest, RestoredAlarmDeliversThroughItsRebuiltHandle) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  manager_->register_alarm(AlarmSpec::one_shot("later", AppId{2}, Duration::seconds(30)),
                           at(1500), noop_task());
  sim_.run_until(at(1000));
  ASSERT_TRUE(device_->quiescent());

  snapshot::Writer w;
  w.begin_section("sim", 1);
  sim_.save(w);
  w.end_section();
  w.begin_section("device", 1);
  device_->save(w);
  w.end_section();
  w.begin_section("wakelocks", 1);
  wakelocks_->save(w);
  w.end_section();
  w.begin_section("alarms", 1);
  manager_->save(w);
  w.end_section();
  w.begin_section("rtc", 1);
  rtc_->save(w);
  w.end_section();
  const std::string bytes = w.finish();

  test::FrameworkHarness restored;
  restored.init(std::make_unique<NativePolicy>());
  std::vector<std::string> resolved_calls;
  const snapshot::Reader r(bytes);
  {
    snapshot::SectionReader s = r.section("sim", 1);
    restored.sim_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("device", 1);
    restored.device_->restore(s);
  }
  {
    snapshot::SectionReader s = r.section("wakelocks", 1);
    restored.wakelocks_->restore(s);
  }
  {
    snapshot::SectionReader s = r.section("alarms", 1);
    restored.manager_->restore(s, [&](AppId, const std::string& tag) -> DeliveryHandler {
      const ComponentSet hw =
          tag == "sync" ? ComponentSet{Component::kWifi} : ComponentSet::none();
      const Duration hold = tag == "sync" ? Duration::seconds(2) : Duration::zero();
      return [&resolved_calls, hw, hold](const Alarm& a, TimePoint) {
        resolved_calls.push_back(a.spec().tag);
        return TaskSpec{hw, hold};
      };
    });
  }
  {
    snapshot::SectionReader s = r.section("rtc", 1);
    restored.rtc_->restore(s, restored.manager_->rtc_handler());
  }
  ASSERT_TRUE(restored.sim_.fully_bound());

  const std::size_t before = deliveries_.size();
  sim_.run_until(at(2000));
  restored.sim_.run_until(at(2000));
  ASSERT_EQ(restored.deliveries_.size(), deliveries_.size() - before);
  for (std::size_t i = 0; i < restored.deliveries_.size(); ++i) {
    const DeliveryRecord& x = deliveries_[before + i];
    const DeliveryRecord& y = restored.deliveries_[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.tag, y.tag);
    EXPECT_EQ(x.delivered, y.delivered);
    EXPECT_EQ(x.hardware_used, y.hardware_used);
  }
  // Every restored delivery ran the resolver's handler, and only those.
  std::vector<std::string> delivered_tags;
  for (const DeliveryRecord& d : restored.deliveries_) delivered_tags.push_back(d.tag);
  EXPECT_EQ(delivered_tags.size(), 3u);  // sync twice, later once
  EXPECT_EQ(resolved_calls, delivered_tags);
  EXPECT_EQ(restored.wakelocks_->usage(Component::kWifi).on_time,
            wakelocks_->usage(Component::kWifi).on_time);
  EXPECT_TRUE(restored.manager_->check_invariants().empty());
}

}  // namespace
}  // namespace simty::alarm
