// Proves the incremental queue maintenance (upper_bound insert + single-
// batch reposition) keeps exactly the order the old full stable_sort
// produced. With slow queue checks enabled, AlarmManager::sort_queue runs
// the stable_sort equivalence assertion after every insert; this test
// drives a randomized register/set/cancel/rebatch/deliver workload through
// all five policies, so any divergence throws mid-run.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/fixed_interval_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/rng.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

std::unique_ptr<AlignmentPolicy> make_policy(int which) {
  switch (which) {
    case 0: return std::make_unique<ExactPolicy>();
    case 1: return std::make_unique<NativePolicy>();
    case 2: return std::make_unique<SimtyPolicy>();
    case 3: return std::make_unique<DurationSimtyPolicy>();
    default: return std::make_unique<FixedIntervalPolicy>(Duration::minutes(5));
  }
}

/// Learned hardware profiles vary, so SIMTY's Table-1 ranks (and SIMTY-DUR's
/// hold tie-break) see real hardware and duration differences.
hw::ComponentSet random_hardware(Rng& rng) {
  static const hw::ComponentSet kPalette[] = {
      hw::ComponentSet::none(),
      hw::ComponentSet{hw::Component::kWifi},
      hw::ComponentSet{hw::Component::kWifi, hw::Component::kCellular},
      hw::ComponentSet{hw::Component::kWps},
      hw::ComponentSet{hw::Component::kGps},
      hw::ComponentSet{hw::Component::kAccelerometer},
  };
  return kPalette[rng.next_below(6)];
}

class QueueOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(QueueOrderTest, IncrementalInsertMatchesStableSortUnderChurn) {
  test::FrameworkHarness h;
  h.init(make_policy(GetParam()));
  h.manager_->set_slow_queue_checks(true);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 11);
  std::vector<AlarmId> ids;

  // Registration wave: mixed kinds, modes, and windows, with nominal times
  // packed tightly enough to force batching and delivery-time ties.
  for (int i = 0; i < 120; ++i) {
    const AppId app{static_cast<std::uint32_t>(i % 12)};
    const bool wakeup = rng.chance(0.7);
    AlarmSpec spec;
    if (rng.chance(0.6)) {
      const Duration repeat = Duration::seconds(30 * (1 + static_cast<int>(rng.next_below(20))));
      spec = AlarmSpec::repeating("churn." + std::to_string(i), app,
                                  rng.chance(0.5) ? RepeatMode::kStatic
                                                  : RepeatMode::kDynamic,
                                  repeat, 0.1, 0.5);
    } else {
      spec = AlarmSpec::one_shot("churn." + std::to_string(i), app,
                                 Duration::seconds(1 + static_cast<int>(rng.next_below(120))));
    }
    spec.kind = wakeup ? AlarmKind::kWakeup : AlarmKind::kNonWakeup;
    const TimePoint nominal =
        h.sim_.now() + Duration::seconds(1 + static_cast<int>(rng.next_below(900)));
    ids.push_back(h.manager_->register_alarm(
        spec, nominal,
        test::FrameworkHarness::task(random_hardware(rng),
                                     Duration::millis(rng.next_below(4000)))));
  }

  // Churn wave: re-register (the realignment path), cancel, rebatch, and
  // let the simulation deliver (repeating alarms reinsert on delivery).
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t dice = rng.next_below(100);
    if (dice < 40) {
      const AlarmId id = ids[rng.next_below(static_cast<std::uint32_t>(ids.size()))];
      if (h.manager_->is_registered(id)) {
        h.manager_->set(id, h.sim_.now() + Duration::seconds(
                                               1 + static_cast<int>(rng.next_below(600))));
      }
    } else if (dice < 55) {
      const AlarmId id = ids[rng.next_below(static_cast<std::uint32_t>(ids.size()))];
      if (h.manager_->is_registered(id)) h.manager_->cancel(id);
    } else if (dice < 70) {
      h.manager_->rebatch_all();
    } else {
      h.sim_.run_until(h.sim_.now() + Duration::seconds(30 + rng.next_below(90)));
    }
    const std::vector<std::string> issues = h.manager_->check_invariants();
    ASSERT_TRUE(issues.empty()) << "round " << round << ": " << issues.front();
  }
}

std::string policy_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "Exact";
    case 1: return "Native";
    case 2: return "Simty";
    case 3: return "SimtyDur";
    default: return "Fixed";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, QueueOrderTest, ::testing::Values(0, 1, 2, 3, 4),
                         policy_name);

}  // namespace
}  // namespace simty::alarm
