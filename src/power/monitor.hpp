#pragma once
// Monsoon-style power monitor.
//
// Sits across the battery rails like the paper's Monsoon Solutions unit:
// records the piecewise-constant total power waveform plus discrete energy
// impulses, integrates exactly, and can re-sample the waveform at a finite
// rate (the real instrument samples at 5 kHz) to quantify what a hardware
// monitor would have reported.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/component.hpp"
#include "hw/power_bus.hpp"

namespace simty::power {

/// One step of the recorded power waveform: total power from `t` onward.
struct PowerSample {
  TimePoint t;
  Power level;
};

/// Records and integrates the device's total power draw.
class PowerMonitor : public hw::PowerListener {
 public:
  PowerMonitor() = default;

  void on_device_state(TimePoint t, hw::DeviceState state, Power base_level) override;
  void on_component_power(TimePoint t, hw::Component c, bool on, Power level) override;
  void on_impulse(TimePoint t, Energy e, hw::ImpulseKind kind,
                  std::optional<hw::Component> component) override;

  /// Closes the waveform at `now`; call once at end of run.
  void finalize(TimePoint now);

  /// Exact integral of the waveform plus all impulses.
  Energy total_energy() const;

  /// Energy as a finite-rate sampler would report it: zero-order-hold
  /// sampling of the waveform at `rate_hz`, impulses included exactly
  /// (the Monsoon integrates charge, so impulses are never missed).
  Energy sampled_energy(double rate_hz) const;

  /// Average of total power over the recorded span.
  Power average_power() const;

  /// Maximum instantaneous level of the waveform.
  Power peak_power() const;

  /// The recorded step waveform (deduplicated level changes).
  const std::vector<PowerSample>& waveform() const { return waveform_; }

  /// CSV rendering of the waveform ("t_s,power_mw" rows) for plotting;
  /// when `max_rows` > 0 the waveform is decimated to at most that many
  /// rows (keeping first/last).
  std::string waveform_csv(std::size_t max_rows = 0) const;

  /// Number of impulses recorded.
  std::size_t impulse_count() const { return impulses_.size(); }

 private:
  struct Impulse {
    TimePoint t;
    Energy e;
  };

  void record_level(TimePoint t);

  Power device_level_ = Power::zero();
  std::vector<Power> component_levels_ =
      std::vector<Power>(hw::kComponentCount, Power::zero());

  std::vector<PowerSample> waveform_;
  std::vector<Impulse> impulses_;
  TimePoint end_;
  bool finalized_ = false;
};

}  // namespace simty::power
