#pragma once
// Power/energy model of the simulated smartphone.
//
// Calibrated against the three measurements the paper publishes for the
// LG Nexus 5 (§2.2): a bare wakeup without extra hardware costs ~180 mJ,
// one WPS location fix costs ~3,650 mJ, and one calendar notification costs
// ~400 mJ. Everything else (Wi-Fi sync, accelerometer sampling, connected-
// standby sleep floor) uses representative published Nexus-5-class numbers;
// only the *shape* of the resulting figures is claimed, not absolute joules.

#include <array>
#include <string>

#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/component.hpp"

namespace simty::hw {

/// Per-component electrical parameters.
struct ComponentPower {
  /// One-off energy to bring the component out of its dormant mode; paid
  /// once per on-cycle and therefore amortized across aligned alarms — the
  /// root cause of hardware-similarity savings (paper §3.1.1).
  Energy activation = Energy::zero();

  /// Power drawn while the component is wakelocked on.
  Power active = Power::zero();

  /// How much of concurrent tasks' hold time serializes on this component:
  /// 0.0 = perfect piggybacking (one WPS scan serves every requester),
  /// 1.0 = fully serial (each task holds the component for its full
  /// duration after its predecessor). Governs how much on-time alignment
  /// actually removes.
  double serial_fraction = 0.0;

  /// Radio tail: after the last wakelock drops the component lingers in a
  /// high-power state for this long before powering down (the "kept on for
  /// longer than necessary" of ref [12]; zero = immediate power-down, the
  /// calibrated default). Re-acquiring during the tail is a warm start: no
  /// activation energy is paid.
  Duration tail = Duration::zero();

  /// Power drawn during the tail.
  Power tail_power = Power::zero();
};

/// Whole-device and per-component power parameters.
struct PowerModel {
  /// Connected-standby floor: CPU suspended, Wi-Fi in PSM keeping the
  /// association alive. This is the portion alarm alignment cannot reduce.
  Power sleep = Power::milliwatts(25.0);

  /// Power while the wake transition is in flight.
  Power waking = Power::milliwatts(150.0);

  /// CPU + memory + rails while awake with the screen off.
  Power awake_base = Power::milliwatts(200.0);

  /// Energy impulse paid at the start of each wake transition (cache/DRAM
  /// restore, governor ramp).
  Energy wake_transition = Energy::millijoules(38.0);

  /// RTC interrupt to usable-CPU latency. Explains the paper's observation
  /// that alpha = 0 alarms slip 0.4-0.6 % of their period under NATIVE.
  Duration wake_latency = Duration::millis(250);

  /// How long the device stays awake after the last CPU wakelock drops.
  Duration idle_linger = Duration::millis(300);

  /// Minimum awake time to run an alarm handler that wakelocks nothing.
  Duration handler_floor = Duration::millis(400);

  std::array<ComponentPower, kComponentCount> components{};

  /// Nexus-5-flavoured defaults calibrated to the paper's measurements.
  static PowerModel nexus5();

  /// A wearable-class profile (smartwatch): every rail is several times
  /// leaner and the sleep floor is tiny, so the awake share dominates the
  /// standby bill. Used by the hardware-profile ablation; not calibrated
  /// to any published measurement.
  static PowerModel wearable();

  const ComponentPower& component(Component c) const {
    return components[static_cast<std::size_t>(c)];
  }
  ComponentPower& component(Component c) {
    return components[static_cast<std::size_t>(c)];
  }

  /// Analytic energy of a *solo* delivery of an alarm that wakelocks `set`
  /// for `hold`. Used by calibration tests and the Fig-2 bench; the
  /// simulator reproduces these numbers dynamically.
  Energy solo_delivery_energy(ComponentSet set, Duration hold) const;
};

}  // namespace simty::hw
