#include "sim/simulator.hpp"

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::sim {

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

void Simulator::run_until(TimePoint until) {
  SIMTY_CHECK_MSG(until >= now_, "Simulator::run_until: horizon in the past");
  while (!queue_.empty() && queue_.next_time() <= until) {
    step();
  }
  now_ = until;
}

void Simulator::run_all() {
  while (step()) {
  }
}

void Simulator::save(snapshot::Writer& w) const {
  w.i64(now_.us());
  w.u64(events_processed_);
  queue_.save(w);
}

void Simulator::restore(snapshot::SectionReader& s) {
  now_ = TimePoint::from_us(s.i64());
  events_processed_ = s.u64();
  queue_.restore(s);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Fired fired = queue_.pop();
  SIMTY_CHECK_MSG(fired.when >= now_, "Simulator: time went backwards");
  now_ = fired.when;
  ++events_processed_;
  // Callbacks never advance now_ (only step() does), so the span closes at
  // the fire time; nested sim activity shows up as the events it schedules.
  SIMTY_TRACE_SPAN_BEGIN(now_, trace::TraceCategory::kSim, fired.label,
                         static_cast<std::int64_t>(fired.priority));
  fired.callback();
  SIMTY_TRACE_SPAN_END(now_, trace::TraceCategory::kSim, fired.label,
                       static_cast<std::int64_t>(fired.priority));
  return true;
}

}  // namespace simty::sim
