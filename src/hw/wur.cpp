#include "hw/wur.hpp"

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::hw {

WakeupReceiver::WakeupReceiver(sim::Simulator& sim, WurConfig config,
                               PowerBus& bus)
    : sim_(sim), config_(config), bus_(bus), listening_since_(sim.now()) {
  SIMTY_CHECK(!config_.wake_latency.is_negative());
}

void WakeupReceiver::start_listening() {
  if (listening_) return;
  listening_ = true;
  listening_since_ = sim_.now();
  bus_.publish_component_power(sim_.now(), Component::kWur, true, config_.listen);
}

void WakeupReceiver::stop_listening() {
  if (!listening_) return;
  listening_ = false;
  listen_time_ += sim_.now() - listening_since_;
  bus_.publish_component_power(sim_.now(), Component::kWur, false, Power::zero());
}

Duration WakeupReceiver::trigger() {
  SIMTY_CHECK_MSG(listening_, "WakeupReceiver::trigger while not listening");
  ++triggers_;
  // Attributed to kWur so the accountant books the decode energy alongside
  // the listen rail.
  bus_.publish_impulse(sim_.now(), config_.wake_trigger,
                       ImpulseKind::kComponentActivation, Component::kWur);
  return config_.wake_latency;
}

void WakeupReceiver::finalize(TimePoint now) {
  if (!listening_) return;
  SIMTY_CHECK_MSG(now >= listening_since_,
                  "WakeupReceiver::finalize: horizon before the open span");
  listen_time_ += now - listening_since_;
  listening_since_ = now;
}

void WakeupReceiver::save(snapshot::Writer& w) const {
  w.boolean(listening_);
  w.i64(listening_since_.us());
  w.i64(listen_time_.us());
  w.u64(triggers_);
}

void WakeupReceiver::restore(snapshot::SectionReader& s) {
  listening_ = s.boolean();
  listening_since_ = TimePoint::from_us(s.i64());
  listen_time_ = Duration::micros(s.i64());
  triggers_ = s.u64();
  // Re-announce the rail for the fresh listener stack (the accountant's own
  // restore overwrites its integration state afterwards, as with the RRC
  // rail).
  if (listening_) {
    bus_.publish_component_power(sim_.now(), Component::kWur, true, config_.listen);
  } else {
    bus_.publish_component_power(sim_.now(), Component::kWur, false, Power::zero());
  }
}

}  // namespace simty::hw
