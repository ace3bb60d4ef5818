#include <gtest/gtest.h>

#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/strings.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

class PolicySwapTest : public test::FrameworkFixture {};

TEST_F(PolicySwapTest, SetPolicyRebatchesQueuedAlarms) {
  init(std::make_unique<NativePolicy>());
  // Two imperceptible alarms whose graces overlap but windows do not:
  // NATIVE keeps them apart, SIMTY merges them.
  auto reg = [&](const char* tag, std::int64_t nominal) {
    return manager_->register_alarm(
        AlarmSpec::repeating(tag, AppId{1}, RepeatMode::kStatic,
                             Duration::seconds(600), 0.1, 0.96),
        at(nominal), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  };
  reg("a", 600);
  reg("b", 700);  // windows [600,660] vs [700,760]: disjoint
  // Profile both alarms first (hardware must be learned before SIMTY may
  // use grace overlap).
  sim_.run_until(at(800));
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);

  manager_->set_policy(std::make_unique<SimtyPolicy>());
  EXPECT_EQ(manager_->policy().name(), "SIMTY");
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  EXPECT_TRUE(manager_->check_invariants().empty());

  // And back: NATIVE splits them again.
  manager_->set_policy(std::make_unique<NativePolicy>());
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(PolicySwapTest, SwapMidRunKeepsGuarantees) {
  init(std::make_unique<NativePolicy>());
  for (int i = 0; i < 5; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating(str_cat("s", std::to_string(i)), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(120 + 30 * i),
                             0.0, 0.9),
        at(120 + 17 * i), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  }
  sim_.schedule_at(at(1800), [&] {
    manager_->set_policy(std::make_unique<SimtyPolicy>());
  });
  sim_.run_until(at(3600));
  EXPECT_TRUE(manager_->check_invariants().empty());
  for (const auto& r : deliveries_) {
    EXPECT_GE(r.delivered, r.nominal) << r.tag;
    if (!r.was_perceptible) {
      EXPECT_LE(r.delivered,
                r.nominal + r.repeat_interval * 0.9 + model_.wake_latency)
          << r.tag;
    }
  }
}

TEST_F(PolicySwapTest, RebatchAllIsIdempotentOnStableQueues) {
  init(std::make_unique<SimtyPolicy>());
  for (int i = 0; i < 4; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating(str_cat("s", std::to_string(i)), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(600), 0.75,
                             0.96),
        at(100 + 50 * i), noop_task());
  }
  const std::size_t before = manager_->queue(AlarmKind::kWakeup).size();
  manager_->rebatch_all();
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), before);
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(PolicySwapTest, RebatchAllOnEmptyManagerIsSafe) {
  init(std::make_unique<NativePolicy>());
  manager_->rebatch_all();
  EXPECT_TRUE(manager_->queue(AlarmKind::kWakeup).empty());
  EXPECT_FALSE(rtc_->programmed().has_value());
}

TEST_F(PolicySwapTest, CancelByTagRemovesMatchingAlarms) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("line.sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("line.keepalive", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.5, 0.9),
      at(200), noop_task());
  const AlarmId other = manager_->register_alarm(
      AlarmSpec::repeating("viber.sync", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(300), noop_task());
  EXPECT_EQ(manager_->cancel_by_tag("line."), 2u);
  EXPECT_TRUE(manager_->is_registered(other));
  EXPECT_EQ(manager_->stats().registrations, 3u);
  EXPECT_EQ(manager_->cancel_by_tag("line."), 0u);  // idempotent
  sim_.run_until(at(1000));
  for (const auto& r : deliveries_) EXPECT_EQ(r.tag, "viber.sync");
}

}  // namespace
}  // namespace simty::alarm
