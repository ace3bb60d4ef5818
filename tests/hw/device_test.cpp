#include "hw/device.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hw/power_bus.hpp"
#include "sim/simulator.hpp"

namespace simty::hw {
namespace {

struct StateRecord {
  TimePoint t;
  DeviceState state;
};

class RecordingListener : public PowerListener {
 public:
  void on_device_state(TimePoint t, DeviceState state, Power) override {
    states.push_back({t, state});
  }
  void on_impulse(TimePoint, Energy e, ImpulseKind kind,
                  std::optional<Component>) override {
    if (kind == ImpulseKind::kWakeTransition) wake_impulses += e.mj();
  }
  std::vector<StateRecord> states;
  double wake_impulses = 0.0;
};

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() : model_(PowerModel::nexus5()) {
    bus_.add_listener(&listener_);
    device_ = std::make_unique<Device>(sim_, model_, bus_);
  }
  sim::Simulator sim_;
  PowerModel model_;
  PowerBus bus_;
  RecordingListener listener_;
  std::unique_ptr<Device> device_;
};

TEST_F(DeviceTest, StartsAsleep) {
  EXPECT_EQ(device_->state(), DeviceState::kAsleep);
  ASSERT_FALSE(listener_.states.empty());
  EXPECT_EQ(listener_.states.front().state, DeviceState::kAsleep);
}

TEST_F(DeviceTest, WakeTakesWakeLatency) {
  TimePoint ready_at;
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(10), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [&] { ready_at = sim_.now(); });
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(20));
  EXPECT_EQ(ready_at, TimePoint::origin() + Duration::seconds(10) + model_.wake_latency);
  EXPECT_EQ(device_->wakeup_count(), 1u);
  EXPECT_EQ(device_->wakeups_for(WakeReason::kRtcAlarm), 1u);
}

TEST_F(DeviceTest, WakePaysTransitionImpulseOnce) {
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [] {});
    // A second request while waking coalesces — no second impulse.
    device_->request_awake(WakeReason::kExternalPush, [] {});
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_DOUBLE_EQ(listener_.wake_impulses, model_.wake_transition.mj());
  EXPECT_EQ(device_->wakeup_count(), 1u);
}

TEST_F(DeviceTest, SuspendsAfterIdleLingerWithoutLocks) {
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [] {});
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_EQ(device_->state(), DeviceState::kAsleep);
  // Timeline: asleep -> waking -> awake -> asleep.
  ASSERT_EQ(listener_.states.size(), 4u);
  EXPECT_EQ(listener_.states[1].state, DeviceState::kWaking);
  EXPECT_EQ(listener_.states[2].state, DeviceState::kAwake);
  EXPECT_EQ(listener_.states[3].state, DeviceState::kAsleep);
  // Awake-to-asleep gap equals the idle linger.
  EXPECT_EQ(listener_.states[3].t - listener_.states[2].t, model_.idle_linger);
}

TEST_F(DeviceTest, CpuLockBlocksSuspend) {
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [&] {
      device_->acquire_cpu_lock();
      sim_.schedule_after(Duration::seconds(5), [&] { device_->release_cpu_lock(); });
    });
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(4));
  EXPECT_EQ(device_->state(), DeviceState::kAwake);
  sim_.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_EQ(device_->state(), DeviceState::kAsleep);
}

TEST_F(DeviceTest, NestedLocksRequireAllReleases) {
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [&] {
      device_->acquire_cpu_lock();
      device_->acquire_cpu_lock();
      sim_.schedule_after(Duration::seconds(2), [&] { device_->release_cpu_lock(); });
      sim_.schedule_after(Duration::seconds(6), [&] { device_->release_cpu_lock(); });
    });
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(device_->state(), DeviceState::kAwake);
  EXPECT_EQ(device_->cpu_lock_count(), 1);
  sim_.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_EQ(device_->state(), DeviceState::kAsleep);
}

TEST_F(DeviceTest, RequestWhileAwakeRunsImmediatelyWithoutNewWakeup) {
  int calls = 0;
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [&] {
      ++calls;
      device_->request_awake(WakeReason::kExternalPush, [&] { ++calls; });
    });
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(device_->wakeup_count(), 1u);
  EXPECT_EQ(device_->state(), DeviceState::kAsleep);  // still suspends after
}

TEST_F(DeviceTest, WakeListenersFireOnTransitionCompletion) {
  std::vector<WakeReason> reasons;
  device_->add_wake_listener([&](WakeReason r) { reasons.push_back(r); });
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    device_->request_awake(WakeReason::kUserButton, [] {});
  });
  sim_.run_until(TimePoint::origin() + Duration::seconds(5));
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], WakeReason::kUserButton);
}

TEST_F(DeviceTest, AcquireWhileAsleepThrows) {
  EXPECT_THROW(device_->acquire_cpu_lock(), std::logic_error);
}

TEST_F(DeviceTest, ReleaseWithoutAcquireThrows) {
  EXPECT_THROW(device_->release_cpu_lock(), std::logic_error);
}

TEST_F(DeviceTest, TimeAccountingSumsToHorizon) {
  sim_.schedule_at(TimePoint::origin() + Duration::seconds(2), [&] {
    device_->request_awake(WakeReason::kRtcAlarm, [&] {
      device_->acquire_cpu_lock();
      sim_.schedule_after(Duration::seconds(3), [&] { device_->release_cpu_lock(); });
    });
  });
  const TimePoint horizon = TimePoint::origin() + Duration::seconds(60);
  sim_.run_until(horizon);
  device_->finalize(horizon);
  const Duration total = device_->total_awake_time() + device_->total_asleep_time() +
                         model_.wake_latency;  // waking counted separately
  EXPECT_EQ(total, Duration::seconds(60));
  // Awake = 3 s task + idle linger.
  EXPECT_EQ(device_->total_awake_time(), Duration::seconds(3) + model_.idle_linger);
}

}  // namespace
}  // namespace simty::hw
