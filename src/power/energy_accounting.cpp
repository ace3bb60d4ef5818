#include "power/energy_accounting.hpp"

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::power {

Energy EnergyBreakdown::awake_total() const {
  return waking + awake_base + wake_transitions + component_active +
         component_activation;
}

Energy EnergyBreakdown::total() const { return sleep + awake_total(); }

void EnergyAccountant::on_device_state(TimePoint t, hw::DeviceState state,
                                       Power base_level) {
  if (device_seen_) accumulate_device(t);
  device_state_ = state;
  device_level_ = base_level;
  device_since_ = t;
  device_seen_ = true;
}

void EnergyAccountant::on_component_power(TimePoint t, hw::Component c, bool on,
                                          Power level) {
  const auto idx = static_cast<std::size_t>(c);
  ComponentRail& rail = rails_[idx];
  if (rail.on) accumulate_component(idx, t);
  rail.on = on;
  rail.level = level;
  rail.since = t;
}

void EnergyAccountant::on_impulse(TimePoint, Energy e, hw::ImpulseKind kind,
                                  std::optional<hw::Component> component) {
  switch (kind) {
    case hw::ImpulseKind::kWakeTransition:
      breakdown_.wake_transitions += e;
      break;
    case hw::ImpulseKind::kComponentActivation:
      breakdown_.component_activation += e;
      if (component) breakdown_.per_component[static_cast<std::size_t>(*component)] += e;
      break;
  }
}

void EnergyAccountant::finalize(TimePoint now) {
  if (device_seen_) accumulate_device(now);
  device_since_ = now;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    if (rails_[i].on) {
      accumulate_component(i, now);
      rails_[i].since = now;
    }
  }
  finalized_at_ = now;
  finalized_ = true;
}

Power EnergyAccountant::average_power() const {
  SIMTY_CHECK_MSG(finalized_, "average_power requires finalize()");
  const double seconds = (finalized_at_ - TimePoint::origin()).seconds_f();
  SIMTY_CHECK_MSG(seconds > 0.0, "average_power over an empty run");
  return Power::milliwatts(breakdown_.total().mj() / seconds);
}

void EnergyAccountant::accumulate_device(TimePoint until) {
  SIMTY_CHECK(until >= device_since_);
  const Energy e = device_level_ * (until - device_since_);
  switch (device_state_) {
    case hw::DeviceState::kAsleep: breakdown_.sleep += e; break;
    case hw::DeviceState::kWaking: breakdown_.waking += e; break;
    case hw::DeviceState::kAwake: breakdown_.awake_base += e; break;
  }
}

void EnergyAccountant::accumulate_component(std::size_t idx, TimePoint until) {
  ComponentRail& rail = rails_[idx];
  SIMTY_CHECK(until >= rail.since);
  const Energy e = rail.level * (until - rail.since);
  breakdown_.component_active += e;
  breakdown_.per_component[idx] += e;
}

void EnergyAccountant::save(snapshot::Writer& w) const {
  SIMTY_CHECK_MSG(!finalized_, "EnergyAccountant::save: already finalized");
  w.f64(breakdown_.sleep.mj());
  w.f64(breakdown_.waking.mj());
  w.f64(breakdown_.awake_base.mj());
  w.f64(breakdown_.wake_transitions.mj());
  w.f64(breakdown_.component_active.mj());
  w.f64(breakdown_.component_activation.mj());
  for (const Energy e : breakdown_.per_component) w.f64(e.mj());
  w.u8(static_cast<std::uint8_t>(device_state_));
  w.f64(device_level_.mw());
  w.i64(device_since_.us());
  w.boolean(device_seen_);
  for (const ComponentRail& rail : rails_) {
    w.boolean(rail.on);
    w.f64(rail.level.mw());
    w.i64(rail.since.us());
  }
}

void EnergyAccountant::restore(snapshot::SectionReader& s) {
  breakdown_.sleep = Energy::millijoules(s.f64());
  breakdown_.waking = Energy::millijoules(s.f64());
  breakdown_.awake_base = Energy::millijoules(s.f64());
  breakdown_.wake_transitions = Energy::millijoules(s.f64());
  breakdown_.component_active = Energy::millijoules(s.f64());
  breakdown_.component_activation = Energy::millijoules(s.f64());
  for (Energy& e : breakdown_.per_component) e = Energy::millijoules(s.f64());
  const std::uint8_t state = s.u8();
  SIMTY_CHECK_MSG(state <= static_cast<std::uint8_t>(hw::DeviceState::kAwake),
                  "EnergyAccountant::restore: device state out of range");
  device_state_ = static_cast<hw::DeviceState>(state);
  device_level_ = Power::milliwatts(s.f64());
  device_since_ = TimePoint::from_us(s.i64());
  device_seen_ = s.boolean();
  for (ComponentRail& rail : rails_) {
    rail.on = s.boolean();
    rail.level = Power::milliwatts(s.f64());
    rail.since = TimePoint::from_us(s.i64());
  }
  finalized_ = false;
}

}  // namespace simty::power
