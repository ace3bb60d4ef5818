#include "apps/trace_replay.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::apps {

TraceEntry sample_irregular_task(const AppProfile& profile, Rng& rng) {
  // Lognormal-ish hold: exp(N(0, sigma)) scaling of the base hold, clamped
  // to a sane band so a single sample cannot outlast the repeat interval.
  const double sigma = std::max(0.2, profile.hold_jitter);
  double factor = std::exp(rng.normal(0.0, sigma));
  factor = std::min(std::max(factor, 0.25), 4.0);
  Duration hold = profile.base_hold * factor;
  const Duration cap = profile.repeat * 0.5;
  if (hold > cap) hold = cap;
  return TraceEntry{profile.hardware, hold};
}

IrregularApp::IrregularApp(AppProfile profile, Rng rng)
    : ResidentApp(std::move(profile), rng) {}

alarm::TaskSpec IrregularApp::next_task() {
  const TraceEntry e = sample_irregular_task(profile_, rng_);
  return alarm::TaskSpec{e.hardware, e.hold};
}

ImitatedApp::ImitatedApp(AppProfile profile, AppTrace trace)
    : ResidentApp(std::move(profile), Rng(0)),
      trace_(std::move(trace)),
      trace_length_(trace_.entries.size()),
      probe_(0) {
  SIMTY_CHECK_MSG(!trace_.entries.empty(), "imitated app needs a non-empty trace");
}

ImitatedApp::ImitatedApp(AppProfile profile, std::size_t trace_length,
                         std::uint64_t seed)
    : ResidentApp(std::move(profile), Rng(0)),
      trace_length_(trace_length),
      probe_(seed) {
  SIMTY_CHECK_MSG(trace_length_ > 0, "imitated app needs a non-empty trace");
  trace_.app_name = profile_.name;
  trace_.entries.reserve(trace_length_);  // replay never allocates
}

void ImitatedApp::save(snapshot::Writer& w) const {
  ResidentApp::save(w);
  w.u64(cursor_);
}

void ImitatedApp::restore(snapshot::SectionReader& s) {
  ResidentApp::restore(s);
  const std::uint64_t cursor = s.u64();
  SIMTY_CHECK_MSG(cursor < trace_length_,
                  "ImitatedApp::restore: replay cursor past the trace");
  cursor_ = static_cast<std::size_t>(cursor);
}

alarm::TaskSpec ImitatedApp::next_task() {
  while (trace_.entries.size() <= cursor_) {
    trace_.entries.push_back(sample_irregular_task(profile_, probe_));
  }
  const TraceEntry& e = trace_.entries[cursor_];
  cursor_ = (cursor_ + 1) % trace_length_;
  return alarm::TaskSpec{e.hardware, e.hold};
}

AppTrace record_trace(const AppProfile& profile, std::size_t deliveries,
                      std::uint64_t seed) {
  SIMTY_CHECK(deliveries > 0);
  // A profiling pass does not need the full device stack: we sample the
  // app's task generator directly, which is exactly what the framework
  // hooks observed on the phone.
  Rng probe(seed);
  AppTrace trace;
  trace.app_name = profile.name;
  trace.entries.reserve(deliveries);
  for (std::size_t i = 0; i < deliveries; ++i) {
    trace.entries.push_back(sample_irregular_task(profile, probe));
  }
  return trace;
}

}  // namespace simty::apps
