#include "common/time.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace simty {

Duration Duration::from_seconds(double s) {
  return Duration::micros(static_cast<std::int64_t>(std::llround(s * 1e6)));
}

double Duration::ratio(Duration denom) const {
  if (denom.is_zero()) {
    throw std::invalid_argument("Duration::ratio: zero denominator");
  }
  return static_cast<double>(us_) / static_cast<double>(denom.us());
}

std::string Duration::to_string() const {
  char buf[64];
  const std::int64_t abs_us = us_ < 0 ? -us_ : us_;
  if (abs_us >= 3'600'000'000LL && abs_us % 3'600'000'000LL == 0) {
    std::snprintf(buf, sizeof buf, "%lldh", static_cast<long long>(us_ / 3'600'000'000LL));
  } else if (abs_us >= 1'000'000 && abs_us % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(us_ / 1'000'000));
  } else if (abs_us % 1000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(us_ / 1000));
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(us_));
  }
  return buf;
}

std::string TimePoint::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "t=%.3fs", seconds_f());
  return buf;
}

}  // namespace simty
