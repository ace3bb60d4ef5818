#include "power/monitor.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace simty::power {

void PowerMonitor::on_device_state(TimePoint t, hw::DeviceState, Power base_level) {
  device_level_ = base_level;
  record_level(t);
}

void PowerMonitor::on_component_power(TimePoint t, hw::Component c, bool on,
                                      Power level) {
  component_levels_[static_cast<std::size_t>(c)] = on ? level : Power::zero();
  record_level(t);
}

void PowerMonitor::on_impulse(TimePoint t, Energy e, hw::ImpulseKind,
                              std::optional<hw::Component>) {
  impulses_.push_back({t, e});
}

void PowerMonitor::record_level(TimePoint t) {
  Power total = device_level_;
  for (const Power p : component_levels_) total += p;
  if (!waveform_.empty() && waveform_.back().t == t) {
    waveform_.back().level = total;  // coalesce same-instant changes
    return;
  }
  if (!waveform_.empty() && waveform_.back().level == total) return;
  waveform_.push_back({t, total});
}

void PowerMonitor::finalize(TimePoint now) {
  end_ = now;
  finalized_ = true;
}

Energy PowerMonitor::total_energy() const {
  SIMTY_CHECK_MSG(finalized_, "total_energy requires finalize()");
  Energy total = Energy::zero();
  for (std::size_t i = 0; i < waveform_.size(); ++i) {
    const TimePoint stop = i + 1 < waveform_.size() ? waveform_[i + 1].t : end_;
    if (stop > waveform_[i].t) total += waveform_[i].level * (stop - waveform_[i].t);
  }
  for (const Impulse& imp : impulses_) total += imp.e;
  return total;
}

Energy PowerMonitor::sampled_energy(double rate_hz) const {
  SIMTY_CHECK_MSG(finalized_, "sampled_energy requires finalize()");
  SIMTY_CHECK_MSG(rate_hz > 0.0, "sampling rate must be positive");
  if (waveform_.empty()) return Energy::zero();

  const Duration period = Duration::from_seconds(1.0 / rate_hz);
  SIMTY_CHECK_MSG(!period.is_zero(), "sampling rate too high for µs resolution");

  Energy total = Energy::zero();
  std::size_t idx = 0;
  for (TimePoint t = waveform_.front().t; t < end_; t += period) {
    while (idx + 1 < waveform_.size() && waveform_[idx + 1].t <= t) ++idx;
    const TimePoint stop = std::min(t + period, end_);
    total += waveform_[idx].level * (stop - t);
  }
  for (const Impulse& imp : impulses_) total += imp.e;
  return total;
}

Power PowerMonitor::average_power() const {
  SIMTY_CHECK_MSG(finalized_, "average_power requires finalize()");
  if (waveform_.empty()) return Power::zero();
  const Duration span = end_ - waveform_.front().t;
  SIMTY_CHECK_MSG(span > Duration::zero(), "average_power over empty span");
  return Power::milliwatts(total_energy().mj() / span.seconds_f());
}

std::string PowerMonitor::waveform_csv(std::size_t max_rows) const {
  std::string out = "t_s,power_mw\n";
  const std::size_t n = waveform_.size();
  if (n == 0) return out;
  const std::size_t stride =
      (max_rows > 0 && n > max_rows) ? (n + max_rows - 1) / max_rows : 1;
  char buf[64];
  for (std::size_t i = 0; i < n; i += stride) {
    // Always keep the final step.
    const std::size_t idx = (i + stride >= n) ? n - 1 : i;
    std::snprintf(buf, sizeof buf, "%.6f,%.3f\n", waveform_[idx].t.seconds_f(),
                  waveform_[idx].level.mw());
    out += buf;
    if (idx == n - 1) break;
  }
  return out;
}

Power PowerMonitor::peak_power() const {
  Power peak = Power::zero();
  for (const PowerSample& s : waveform_) peak = std::max(peak, s.level);
  return peak;
}

}  // namespace simty::power
