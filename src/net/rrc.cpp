#include "net/rrc.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::net {

const char* to_string(RrcState s) {
  switch (s) {
    case RrcState::kIdle: return "IDLE";
    case RrcState::kFach: return "FACH";
    case RrcState::kDch: return "DCH";
  }
  return "?";
}

RrcMachine::RrcMachine(sim::Simulator& sim, RrcConfig config, hw::PowerBus& bus)
    : sim_(sim), config_(config), bus_(bus), state_since_(sim.now()),
      busy_until_(sim.now()) {
  SIMTY_CHECK(config_.dch_to_fach > Duration::zero());
  SIMTY_CHECK(config_.fach_to_idle > Duration::zero());
}

void RrcMachine::data_activity(Duration duration) {
  SIMTY_CHECK_MSG(!duration.is_negative(), "activity duration must be >= 0");
  const TimePoint now = sim_.now();
  busy_until_ = std::max(busy_until_, now + duration);

  // Promotions are published unattributed, so they never reach the
  // accountant's per_component[kCellular] (a known gap; see DESIGN.md).
  switch (state_) {
    case RrcState::kIdle:
      ++idle_promotions_;
      bus_.publish_impulse(now, config_.idle_promotion,
                           hw::ImpulseKind::kComponentActivation, std::nullopt);
      enter(RrcState::kDch);
      break;
    case RrcState::kFach:
      ++fach_promotions_;
      bus_.publish_impulse(now, config_.fach_promotion,
                           hw::ImpulseKind::kComponentActivation, std::nullopt);
      enter(RrcState::kDch);
      break;
    case RrcState::kDch:
      break;  // already up; timers just move out
  }
  arm_demotion();
}

void RrcMachine::set_state_observer(std::function<void(RrcState)> observer) {
  state_observer_ = std::move(observer);
}

void RrcMachine::enter(RrcState next) {
  const TimePoint now = sim_.now();
  time_in_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
  state_ = next;
  SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kNet, "rrc-state",
                      static_cast<std::int64_t>(state_));
  switch (state_) {
    case RrcState::kDch:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.dch);
      break;
    case RrcState::kFach:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.fach);
      break;
    case RrcState::kIdle:
      bus_.publish_component_power(now, hw::Component::kCellular, false, Power::zero());
      break;
  }
  if (state_observer_) state_observer_(state_);
}

void RrcMachine::arm_demotion() {
  if (demotion_event_) {
    sim_.cancel(*demotion_event_);
    demotion_event_.reset();
  }
  demotion_event_ =
      sim_.schedule_at(busy_until_ + config_.dch_to_fach,
                       [this] { demote_to_fach(); },
                       sim::EventPriority::kHardware, "rrc-dch-fach");
}

void RrcMachine::demote_to_fach() {
  enter(RrcState::kFach);
  demotion_event_ =
      sim_.schedule_at(sim_.now() + config_.fach_to_idle,
                       [this] { demote_to_idle(); },
                       sim::EventPriority::kHardware, "rrc-fach-idle");
}

void RrcMachine::demote_to_idle() {
  demotion_event_.reset();
  enter(RrcState::kIdle);
}

void RrcMachine::save(snapshot::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(state_));
  w.i64(state_since_.us());
  w.i64(busy_until_.us());
  w.boolean(demotion_event_.has_value());
  if (demotion_event_) w.u64(demotion_event_->value);
  w.u64(idle_promotions_);
  w.u64(fach_promotions_);
  for (const Duration d : time_in_) w.i64(d.us());
}

void RrcMachine::restore(snapshot::SectionReader& s) {
  const std::uint8_t state = s.u8();
  SIMTY_CHECK_MSG(state <= static_cast<std::uint8_t>(RrcState::kDch),
                  "RrcMachine::restore: state out of range");
  state_ = static_cast<RrcState>(state);
  state_since_ = TimePoint::from_us(s.i64());
  busy_until_ = TimePoint::from_us(s.i64());
  demotion_event_.reset();
  if (s.boolean()) {
    const std::uint64_t event = s.u64();
    SIMTY_CHECK_MSG(event != 0, "RrcMachine::restore: null demotion event");
    SIMTY_CHECK_MSG(state_ != RrcState::kIdle,
                    "RrcMachine::restore: idle radio with a pending demotion");
    demotion_event_ = sim::EventId{event};
    if (state_ == RrcState::kDch) {
      sim_.rebind(*demotion_event_, [this] { demote_to_fach(); });
    } else {
      sim_.rebind(*demotion_event_, [this] { demote_to_idle(); });
    }
  } else {
    SIMTY_CHECK_MSG(state_ == RrcState::kIdle,
                    "RrcMachine::restore: active radio without a demotion timer");
  }
  idle_promotions_ = s.u64();
  fach_promotions_ = s.u64();
  for (Duration& d : time_in_) d = Duration::micros(s.i64());
  // Re-announce the current rail so a fresh listener stack starts from the
  // restored state rather than nothing.
  const TimePoint now = sim_.now();
  switch (state_) {
    case RrcState::kDch:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.dch);
      break;
    case RrcState::kFach:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.fach);
      break;
    case RrcState::kIdle:
      bus_.publish_component_power(now, hw::Component::kCellular, false,
                                   Power::zero());
      break;
  }
}

Duration RrcMachine::time_in(RrcState s) const {
  return time_in_[static_cast<std::size_t>(s)];
}

void RrcMachine::finalize(TimePoint now) {
  SIMTY_CHECK_MSG(now >= state_since_,
                  "RrcMachine::finalize: horizon before the open span start");
  time_in_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
}

}  // namespace simty::net
