#include <gtest/gtest.h>

#include "alarm/native_policy.hpp"
#include "common/strings.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

class DumpTest : public test::FrameworkFixture {};

TEST_F(DumpTest, DumpShowsQueuesEntriesAndRtc) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("line.sync", AppId{1}, RepeatMode::kDynamic,
                           Duration::seconds(200), 0.75, 0.96),
      at(200), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  AlarmSpec nw = AlarmSpec::repeating("lazy", AppId{2}, RepeatMode::kStatic,
                                      Duration::seconds(600), 0.5, 0.9);
  nw.kind = AlarmKind::kNonWakeup;
  manager_->register_alarm(nw, at(600), noop_task());

  const std::string out = manager_->dump();
  EXPECT_NE(out.find("AlarmManager[NATIVE]"), std::string::npos);
  EXPECT_NE(out.find("wakeup queue: 1 entries"), std::string::npos);
  EXPECT_NE(out.find("non-wakeup queue: 1 entries"), std::string::npos);
  EXPECT_NE(out.find("line.sync"), std::string::npos);
  EXPECT_NE(out.find("lazy"), std::string::npos);
  EXPECT_NE(out.find("rtc: programmed at 200.000s"), std::string::npos);
}

TEST_F(DumpTest, DumpOnIdleManager) {
  init(std::make_unique<NativePolicy>());
  const std::string out = manager_->dump();
  EXPECT_NE(out.find("wakeup queue: 0 entries"), std::string::npos);
  EXPECT_NE(out.find("rtc: idle"), std::string::npos);
}

TEST_F(DumpTest, HealthyManagerHasNoInvariantIssues) {
  init(std::make_unique<NativePolicy>());
  for (int i = 0; i < 6; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating(str_cat("a", std::to_string(i)), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(300 + i * 60),
                             0.5, 0.9),
        at(100 + i * 40), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  }
  EXPECT_TRUE(manager_->check_invariants().empty());
  sim_.run_until(at(2000));
  EXPECT_TRUE(manager_->check_invariants().empty());
}

}  // namespace
}  // namespace simty::alarm
