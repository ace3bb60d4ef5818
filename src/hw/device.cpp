#include "hw/device.hpp"

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::hw {

const char* to_string(WakeReason r) {
  switch (r) {
    case WakeReason::kRtcAlarm: return "rtc-alarm";
    case WakeReason::kExternalPush: return "external-push";
    case WakeReason::kUserButton: return "user-button";
  }
  return "?";
}

namespace {
Power base_level_for(const PowerModel& m, DeviceState s) {
  switch (s) {
    case DeviceState::kAsleep: return m.sleep;
    case DeviceState::kWaking: return m.waking;
    case DeviceState::kAwake: return m.awake_base;
  }
  return Power::zero();
}
}  // namespace

Device::Device(sim::Simulator& sim, const PowerModel& model, PowerBus& bus)
    : sim_(sim), model_(model), bus_(bus) {
  bus_.publish_device_state(sim_.now(), state_, base_level_for(model_, state_));
}

void Device::request_awake(WakeReason reason, std::function<void()> on_ready) {
  SIMTY_CHECK(static_cast<bool>(on_ready));
  switch (state_) {
    case DeviceState::kAwake:
      on_ready();
      // Activity extends the linger window; if the callback acquired no CPU
      // lock the device still suspends after a fresh idle-linger interval.
      if (cpu_locks_ == 0) arm_sleep_timer();
      return;
    case DeviceState::kWaking:
      pending_ready_.emplace_back(reason, std::move(on_ready));
      return;
    case DeviceState::kAsleep: {
      pending_ready_.emplace_back(reason, std::move(on_ready));
      current_wake_reason_ = reason;
      enter_state(DeviceState::kWaking);
      bus_.publish_impulse(sim_.now(), model_.wake_transition,
                           ImpulseKind::kWakeTransition, std::nullopt);
      wake_event_ = sim_.schedule_at(
          sim_.now() + model_.wake_latency, [this] { complete_wake(); },
          sim::EventPriority::kHardware, "device-wake-complete");
      return;
    }
  }
}

void Device::complete_wake() {
  SIMTY_CHECK(state_ == DeviceState::kWaking);
  wake_event_.reset();
  enter_state(DeviceState::kAwake);
  ++wakeup_count_;
  ++wakeups_by_reason_[static_cast<std::size_t>(current_wake_reason_)];

  // Run the requesters queued during the transition, then the wake
  // listeners (e.g. the alarm manager flushing non-wakeup alarms).
  // A callback that calls request_awake() finds the device awake and runs
  // inline, never touching pending_ready_, so the swap is re-entry safe.
  ready_running_.swap(pending_ready_);
  for (auto& [reason, cb] : ready_running_) cb();
  ready_running_.clear();
  for (auto& listener : wake_listeners_) listener(current_wake_reason_);

  if (cpu_locks_ == 0) arm_sleep_timer();
}

void Device::acquire_cpu_lock() {
  SIMTY_CHECK_MSG(state_ == DeviceState::kAwake,
                  "cpu wakelock acquired while not awake");
  ++cpu_locks_;
  SIMTY_TRACE_COUNTER(sim_.now(), trace::TraceCategory::kHw, "cpu-locks",
                      static_cast<std::int64_t>(cpu_locks_));
  disarm_sleep_timer();
}

void Device::release_cpu_lock() {
  SIMTY_CHECK_MSG(cpu_locks_ > 0, "cpu wakelock underflow");
  --cpu_locks_;
  SIMTY_TRACE_COUNTER(sim_.now(), trace::TraceCategory::kHw, "cpu-locks",
                      static_cast<std::int64_t>(cpu_locks_));
  if (cpu_locks_ == 0 && state_ == DeviceState::kAwake) arm_sleep_timer();
}

void Device::add_wake_listener(std::function<void(WakeReason)> listener) {
  SIMTY_CHECK(static_cast<bool>(listener));
  wake_listeners_.push_back(std::move(listener));
}

std::uint64_t Device::wakeups_for(WakeReason r) const {
  return wakeups_by_reason_[static_cast<std::size_t>(r)];
}

Duration Device::total_awake_time() const {
  return time_in_state_[static_cast<std::size_t>(DeviceState::kAwake)];
}

Duration Device::total_asleep_time() const {
  return time_in_state_[static_cast<std::size_t>(DeviceState::kAsleep)];
}

void Device::finalize(TimePoint now) {
  SIMTY_CHECK(now >= state_since_);
  time_in_state_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
}

void Device::save(snapshot::Writer& w) const {
  SIMTY_CHECK_MSG(quiescent(), "Device::save: checkpoint outside a quiescent instant");
  w.u8(static_cast<std::uint8_t>(state_));
  w.i64(state_since_.us());
  w.u8(static_cast<std::uint8_t>(current_wake_reason_));
  w.u64(wakeup_count_);
  for (const std::uint64_t n : wakeups_by_reason_) w.u64(n);
  for (const Duration d : time_in_state_) w.i64(d.us());
}

void Device::restore(snapshot::SectionReader& s) {
  const std::uint8_t state = s.u8();
  SIMTY_CHECK_MSG(state == static_cast<std::uint8_t>(DeviceState::kAsleep),
                  "Device::restore: snapshot not taken at a quiescent instant");
  state_ = DeviceState::kAsleep;
  state_since_ = TimePoint::from_us(s.i64());
  const std::uint8_t reason = s.u8();
  SIMTY_CHECK_MSG(reason < 3, "Device::restore: wake reason out of range");
  current_wake_reason_ = static_cast<WakeReason>(reason);
  wakeup_count_ = s.u64();
  for (std::uint64_t& n : wakeups_by_reason_) n = s.u64();
  for (Duration& d : time_in_state_) d = Duration::micros(s.i64());
  cpu_locks_ = 0;
  pending_ready_.clear();
  wake_event_.reset();
  sleep_event_.reset();
  // Re-announce the (asleep) base rail so a fresh bus listener stack starts
  // from the restored state rather than the constructor's t=0 publish.
  bus_.publish_device_state(sim_.now(), state_, base_level_for(model_, state_));
}

void Device::enter_state(DeviceState next) {
  const TimePoint now = sim_.now();
  time_in_state_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
  state_ = next;
  SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "device-state",
                      static_cast<std::int64_t>(state_));
  bus_.publish_device_state(now, state_, base_level_for(model_, state_));
}

void Device::arm_sleep_timer() {
  disarm_sleep_timer();
  // Observer priority: if work lands at the exact expiry instant, it runs
  // first and re-acquires before the device suspends.
  sleep_event_ = sim_.schedule_at(
      sim_.now() + model_.idle_linger,
      [this] {
        sleep_event_.reset();
        if (cpu_locks_ == 0 && state_ == DeviceState::kAwake) {
          enter_state(DeviceState::kAsleep);
        }
      },
      sim::EventPriority::kObserver, "device-suspend");
}

void Device::disarm_sleep_timer() {
  if (sleep_event_) {
    sim_.cancel(*sleep_event_);
    sleep_event_.reset();
  }
}

}  // namespace simty::hw
