#include "power/monitor.hpp"

#include <gtest/gtest.h>

namespace simty::power {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(PowerMonitor, IntegratesStepWaveform) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  m.on_device_state(at(10), hw::DeviceState::kAwake, Power::milliwatts(200));
  m.on_device_state(at(15), hw::DeviceState::kAsleep, Power::milliwatts(25));
  m.finalize(at(20));
  // 10 s * 25 + 5 s * 200 + 5 s * 25 = 1375 mJ.
  EXPECT_NEAR(m.total_energy().mj(), 1375.0, 1e-9);
  EXPECT_NEAR(m.average_power().mw(), 1375.0 / 20.0, 1e-9);
  EXPECT_NEAR(m.peak_power().mw(), 200.0, 1e-9);
}

TEST(PowerMonitor, SumsComponentRailsOntoDeviceRail) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAwake, Power::milliwatts(200));
  m.on_component_power(at(0), hw::Component::kWifi, true, Power::milliwatts(250));
  m.on_component_power(at(2), hw::Component::kWps, true, Power::milliwatts(60));
  m.on_component_power(at(4), hw::Component::kWifi, false, Power::zero());
  m.finalize(at(5));
  // [0,2): 450, [2,4): 510, [4,5): 260 -> 900+1020+260 = 2180 mJ.
  EXPECT_NEAR(m.total_energy().mj(), 2180.0, 1e-9);
  EXPECT_NEAR(m.peak_power().mw(), 510.0, 1e-9);
}

TEST(PowerMonitor, ImpulsesAddedExactly) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  m.on_impulse(at(3), Energy::millijoules(38), hw::ImpulseKind::kWakeTransition,
               std::nullopt);
  m.on_impulse(at(7), Energy::millijoules(952),
               hw::ImpulseKind::kComponentActivation, hw::Component::kWps);
  m.finalize(at(10));
  EXPECT_NEAR(m.total_energy().mj(), 250.0 + 990.0, 1e-9);
  EXPECT_EQ(m.impulse_count(), 2u);
}

TEST(PowerMonitor, SampledEnergyConvergesToExact) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  // A burst the sampler must not miss entirely.
  m.on_device_state(at(10), hw::DeviceState::kAwake, Power::milliwatts(200));
  m.on_device_state(at(11), hw::DeviceState::kAsleep, Power::milliwatts(25));
  m.finalize(at(60));
  const double exact = m.total_energy().mj();
  // At the Monsoon's 5 kHz the zero-order-hold error is negligible.
  EXPECT_NEAR(m.sampled_energy(5000.0).mj(), exact, exact * 0.001);
  // At 0.2 Hz (5 s period) the 1 s burst aliases badly — quantization is
  // visible but bounded by one period's worth of the burst amplitude.
  const double coarse = m.sampled_energy(0.2).mj();
  EXPECT_NEAR(coarse, exact, 175.0 * 5.0);
}

TEST(PowerMonitor, WaveformDeduplicatesLevels) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  // Same level again: no new step.
  m.on_device_state(at(5), hw::DeviceState::kAsleep, Power::milliwatts(25));
  m.on_device_state(at(10), hw::DeviceState::kAwake, Power::milliwatts(200));
  m.finalize(at(20));
  EXPECT_EQ(m.waveform().size(), 2u);
}

TEST(PowerMonitor, SameInstantChangesCoalesce) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAwake, Power::milliwatts(200));
  m.on_component_power(at(0), hw::Component::kWifi, true, Power::milliwatts(250));
  m.finalize(at(1));
  ASSERT_EQ(m.waveform().size(), 1u);
  EXPECT_NEAR(m.waveform()[0].level.mw(), 450.0, 1e-9);
}

TEST(PowerMonitor, WaveformCsvRendersAndDecimates) {
  PowerMonitor m;
  for (int i = 0; i < 100; ++i) {
    m.on_device_state(at(i), i % 2 == 0 ? hw::DeviceState::kAsleep
                                        : hw::DeviceState::kAwake,
                      Power::milliwatts(i % 2 == 0 ? 25 : 200));
  }
  m.finalize(at(100));
  const std::string full = m.waveform_csv();
  EXPECT_EQ(full.find("t_s,power_mw\n"), 0u);
  // 100 steps + header.
  std::size_t lines = 0;
  for (const char c : full) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 101u);
  // Decimated to ~10 rows, always keeping the last step.
  const std::string small = m.waveform_csv(10);
  lines = 0;
  for (const char c : small) {
    if (c == '\n') ++lines;
  }
  EXPECT_LE(lines, 12u);
  EXPECT_NE(small.find("99.000000"), std::string::npos);
  // Empty monitor renders just the header.
  PowerMonitor empty;
  empty.finalize(at(1));
  EXPECT_EQ(empty.waveform_csv(), "t_s,power_mw\n");
}

TEST(PowerMonitor, QueriesRequireFinalize) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  EXPECT_THROW(m.total_energy(), std::logic_error);
  EXPECT_THROW(m.sampled_energy(5000.0), std::logic_error);
  EXPECT_THROW(m.average_power(), std::logic_error);
}

TEST(PowerMonitor, InvalidSampleRateRejected) {
  PowerMonitor m;
  m.on_device_state(at(0), hw::DeviceState::kAsleep, Power::milliwatts(25));
  m.finalize(at(1));
  EXPECT_THROW(m.sampled_energy(0.0), std::logic_error);
  EXPECT_THROW(m.sampled_energy(-1.0), std::logic_error);
}

}  // namespace
}  // namespace simty::power
