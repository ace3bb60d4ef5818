#include "power/energy_accounting.hpp"

#include <gtest/gtest.h>

namespace simty::power {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(EnergyAccountant, IntegratesSleepFloor) {
  EnergyAccountant acc;
  acc.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  acc.finalize(at(100));
  EXPECT_NEAR(acc.breakdown().sleep.mj(), 2500.0, 1e-9);
  EXPECT_NEAR(acc.breakdown().total().mj(), 2500.0, 1e-9);
  EXPECT_NEAR(acc.average_power().mw(), 25.0, 1e-9);
}

TEST(EnergyAccountant, SplitsDeviceStates) {
  EnergyAccountant acc;
  acc.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  acc.on_device_state(at(10), hw::DeviceState::kWaking, Power::milliwatts(150));
  acc.on_device_state(at(11), hw::DeviceState::kAwake, Power::milliwatts(200));
  acc.on_device_state(at(16), hw::DeviceState::kAsleep, Power::milliwatts(25));
  acc.finalize(at(20));
  const EnergyBreakdown& b = acc.breakdown();
  EXPECT_NEAR(b.sleep.mj(), (10 + 4) * 25.0, 1e-9);
  EXPECT_NEAR(b.waking.mj(), 1 * 150.0, 1e-9);
  EXPECT_NEAR(b.awake_base.mj(), 5 * 200.0, 1e-9);
  EXPECT_NEAR(b.awake_total().mj(), 150.0 + 1000.0, 1e-9);
}

TEST(EnergyAccountant, AttributesComponentEnergy) {
  EnergyAccountant acc;
  acc.on_device_state(at(0), hw::DeviceState::kAwake, Power::milliwatts(200));
  acc.on_component_power(at(5), hw::Component::kWifi, true, Power::milliwatts(250));
  acc.on_component_power(at(8), hw::Component::kWifi, false, Power::zero());
  acc.finalize(at(10));
  const auto wifi = static_cast<std::size_t>(hw::Component::kWifi);
  EXPECT_NEAR(acc.breakdown().component_active.mj(), 3 * 250.0, 1e-9);
  EXPECT_NEAR(acc.breakdown().per_component[wifi].mj(), 750.0, 1e-9);
}

TEST(EnergyAccountant, ImpulsesAreAttributedByKindAndTag) {
  EnergyAccountant acc;
  acc.on_device_state(at(0), hw::DeviceState::kAsleep, Power::zero());
  acc.on_impulse(at(1), Energy::millijoules(38), hw::ImpulseKind::kWakeTransition,
                 std::nullopt);
  acc.on_impulse(at(2), Energy::millijoules(952),
                 hw::ImpulseKind::kComponentActivation, hw::Component::kWps);
  // An unattributed activation (an RRC promotion) counts toward the
  // activation total but no component.
  acc.on_impulse(at(3), Energy::millijoules(600),
                 hw::ImpulseKind::kComponentActivation, std::nullopt);
  acc.finalize(at(10));
  const auto wps = static_cast<std::size_t>(hw::Component::kWps);
  EXPECT_NEAR(acc.breakdown().wake_transitions.mj(), 38.0, 1e-9);
  EXPECT_NEAR(acc.breakdown().component_activation.mj(), 1552.0, 1e-9);
  EXPECT_NEAR(acc.breakdown().per_component[wps].mj(), 952.0, 1e-9);
  Energy attributed = Energy::zero();
  for (const Energy e : acc.breakdown().per_component) attributed += e;
  EXPECT_NEAR(attributed.mj(), 952.0, 1e-9);
  EXPECT_NEAR(acc.breakdown().awake_total().mj(), 1590.0, 1e-9);
}

TEST(EnergyAccountant, OverlappingComponentsAccumulateIndependently) {
  EnergyAccountant acc;
  acc.on_device_state(at(0), hw::DeviceState::kAwake, Power::milliwatts(200));
  acc.on_component_power(at(0), hw::Component::kWifi, true, Power::milliwatts(250));
  acc.on_component_power(at(2), hw::Component::kWps, true, Power::milliwatts(60));
  acc.on_component_power(at(4), hw::Component::kWifi, false, Power::zero());
  acc.on_component_power(at(6), hw::Component::kWps, false, Power::zero());
  acc.finalize(at(10));
  const auto wifi = static_cast<std::size_t>(hw::Component::kWifi);
  const auto wps = static_cast<std::size_t>(hw::Component::kWps);
  EXPECT_NEAR(acc.breakdown().per_component[wifi].mj(), 4 * 250.0, 1e-9);
  EXPECT_NEAR(acc.breakdown().per_component[wps].mj(), 4 * 60.0, 1e-9);
}

TEST(EnergyAccountant, FinalizeIsACheckpointNotAReset) {
  EnergyAccountant acc;
  acc.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  acc.finalize(at(10));
  const double first = acc.breakdown().sleep.mj();
  acc.finalize(at(20));
  EXPECT_NEAR(acc.breakdown().sleep.mj(), 2 * first, 1e-9);
}

TEST(EnergyAccountant, AveragePowerRequiresFinalize) {
  EnergyAccountant acc;
  EXPECT_THROW(acc.average_power(), std::logic_error);
}

TEST(EnergyBreakdown, TotalsCompose) {
  EnergyBreakdown b;
  b.sleep = Energy::millijoules(100);
  b.waking = Energy::millijoules(10);
  b.awake_base = Energy::millijoules(200);
  b.wake_transitions = Energy::millijoules(38);
  b.component_active = Energy::millijoules(300);
  b.component_activation = Energy::millijoules(30);
  EXPECT_NEAR(b.awake_total().mj(), 578.0, 1e-12);
  EXPECT_NEAR(b.total().mj(), 678.0, 1e-12);
}

}  // namespace
}  // namespace simty::power
