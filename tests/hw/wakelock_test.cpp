#include "hw/wakelock.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace simty::hw {
namespace {

class PowerProbe : public PowerListener {
 public:
  void on_component_power(TimePoint t, Component c, bool on, Power level) override {
    events.push_back({t, c, on, level});
  }
  void on_impulse(TimePoint, Energy e, ImpulseKind kind,
                  std::optional<Component>) override {
    if (kind == ImpulseKind::kComponentActivation) activation_mj += e.mj();
  }
  struct Event {
    TimePoint t;
    Component c;
    bool on;
    Power level;
  };
  std::vector<Event> events;
  double activation_mj = 0.0;
};

class WakelockTest : public ::testing::Test {
 protected:
  WakelockTest() : model_(PowerModel::nexus5()) {
    bus_.add_listener(&probe_);
    mgr_ = std::make_unique<WakelockManager>(sim_, model_, bus_);
  }
  void advance(Duration d) {
    sim_.schedule_after(d, [] {});
    sim_.run_all();
  }
  sim::Simulator sim_;
  PowerModel model_;
  PowerBus bus_;
  PowerProbe probe_;
  std::unique_ptr<WakelockManager> mgr_;
};

TEST_F(WakelockTest, FirstAcquirePowersOnWithActivation) {
  const WakelockId id = mgr_->acquire(Component::kWifi, "line");
  EXPECT_TRUE(mgr_->is_on(Component::kWifi));
  ASSERT_EQ(probe_.events.size(), 1u);
  EXPECT_TRUE(probe_.events[0].on);
  EXPECT_DOUBLE_EQ(probe_.events[0].level.mw(),
                   model_.component(Component::kWifi).active.mw());
  EXPECT_DOUBLE_EQ(probe_.activation_mj,
                   model_.component(Component::kWifi).activation.mj());
  mgr_->release(id);
  EXPECT_FALSE(mgr_->is_on(Component::kWifi));
}

// A listener that overrides only the name-tagged on_impulse still sees every
// impulse, with the component's name or an empty tag when unattributed.
TEST_F(WakelockTest, NameTaggedListenerSeesComponentNames) {
  struct TagProbe : PowerListener {
    void on_impulse(TimePoint, Energy, ImpulseKind, std::string_view tag) override {
      tags.emplace_back(tag);
    }
    std::vector<std::string> tags;
  } tagged;
  bus_.add_listener(&tagged);
  mgr_->release(mgr_->acquire(Component::kWifi, "line"));
  bus_.publish_impulse(sim_.now(), Energy::millijoules(1),
                       ImpulseKind::kWakeTransition, std::nullopt);
  EXPECT_EQ(tagged.tags, (std::vector<std::string>{"wifi", ""}));
  bus_.remove_listener(&tagged);
}

TEST_F(WakelockTest, NestedLocksPayActivationOnce) {
  const WakelockId a = mgr_->acquire(Component::kWps, "followmee");
  const WakelockId b = mgr_->acquire(Component::kWps, "celltracker");
  EXPECT_EQ(mgr_->lock_count(Component::kWps), 2);
  // One activation, one power-on event — the amortization that makes
  // hardware similarity pay off.
  EXPECT_DOUBLE_EQ(probe_.activation_mj,
                   model_.component(Component::kWps).activation.mj());
  EXPECT_EQ(probe_.events.size(), 1u);
  mgr_->release(a);
  EXPECT_TRUE(mgr_->is_on(Component::kWps));
  mgr_->release(b);
  EXPECT_FALSE(mgr_->is_on(Component::kWps));
  EXPECT_EQ(mgr_->usage(Component::kWps).cycles, 1u);
  EXPECT_EQ(mgr_->usage(Component::kWps).acquisitions, 2u);
}

TEST_F(WakelockTest, SeparateCyclesCountSeparately) {
  const WakelockId a = mgr_->acquire(Component::kWifi, "x");
  mgr_->release(a);
  const WakelockId b = mgr_->acquire(Component::kWifi, "y");
  mgr_->release(b);
  EXPECT_EQ(mgr_->usage(Component::kWifi).cycles, 2u);
  EXPECT_DOUBLE_EQ(probe_.activation_mj,
                   2 * model_.component(Component::kWifi).activation.mj());
}

TEST_F(WakelockTest, OnTimeAccumulatesAcrossCycles) {
  const WakelockId a = mgr_->acquire(Component::kWifi, "x");
  advance(Duration::seconds(3));
  mgr_->release(a);
  advance(Duration::seconds(10));
  const WakelockId b = mgr_->acquire(Component::kWifi, "x");
  advance(Duration::seconds(2));
  mgr_->release(b);
  EXPECT_EQ(mgr_->usage(Component::kWifi).on_time, Duration::seconds(5));
}

TEST_F(WakelockTest, FinalizeFlushesHeldLocks) {
  mgr_->acquire(Component::kAccelerometer, "moves");
  advance(Duration::seconds(7));
  mgr_->finalize(sim_.now());
  EXPECT_EQ(mgr_->usage(Component::kAccelerometer).on_time, Duration::seconds(7));
  // Finalize is idempotent at the same instant.
  mgr_->finalize(sim_.now());
  EXPECT_EQ(mgr_->usage(Component::kAccelerometer).on_time, Duration::seconds(7));
}

TEST_F(WakelockTest, IndependentComponentsDoNotInterfere) {
  mgr_->acquire(Component::kWifi, "a");
  mgr_->acquire(Component::kSpeaker, "b");
  EXPECT_TRUE(mgr_->is_on(Component::kWifi));
  EXPECT_TRUE(mgr_->is_on(Component::kSpeaker));
  EXPECT_FALSE(mgr_->is_on(Component::kVibrator));
}

TEST_F(WakelockTest, UnknownReleaseThrows) {
  EXPECT_THROW(mgr_->release(WakelockId{999}), std::logic_error);
  const WakelockId id = mgr_->acquire(Component::kWifi, "x");
  mgr_->release(id);
  EXPECT_THROW(mgr_->release(id), std::logic_error);
}

TEST_F(WakelockTest, WatchdogFlagsLongHoldAtRelease) {
  mgr_->set_watchdog_threshold(Duration::seconds(60));
  const WakelockId id = mgr_->acquire(Component::kWifi, "buggy-app");
  advance(Duration::seconds(120));
  mgr_->release(id);
  ASSERT_EQ(mgr_->anomalies().size(), 1u);
  const WakelockAnomaly& a = mgr_->anomalies()[0];
  EXPECT_EQ(a.component, Component::kWifi);
  EXPECT_EQ(a.holder, "buggy-app");
  EXPECT_EQ(a.held_for, Duration::seconds(120));
  EXPECT_FALSE(a.still_held);
}

TEST_F(WakelockTest, WatchdogAuditFindsStillHeldLocks) {
  mgr_->set_watchdog_threshold(Duration::seconds(60));
  mgr_->acquire(Component::kWps, "nosleep-bug");
  advance(Duration::seconds(300));
  EXPECT_EQ(mgr_->audit(sim_.now()), 1u);
  ASSERT_EQ(mgr_->anomalies().size(), 1u);
  EXPECT_TRUE(mgr_->anomalies()[0].still_held);
}

TEST_F(WakelockTest, WatchdogDisabledByDefault) {
  const WakelockId id = mgr_->acquire(Component::kWifi, "x");
  advance(Duration::hours(1));
  mgr_->release(id);
  EXPECT_TRUE(mgr_->anomalies().empty());
  EXPECT_EQ(mgr_->audit(sim_.now()), 0u);
}

TEST_F(WakelockTest, ShortHoldsAreNotAnomalies) {
  mgr_->set_watchdog_threshold(Duration::seconds(60));
  const WakelockId id = mgr_->acquire(Component::kWifi, "good-app");
  advance(Duration::seconds(3));
  mgr_->release(id);
  EXPECT_TRUE(mgr_->anomalies().empty());
}

}  // namespace
}  // namespace simty::hw
