#include "common/interval.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace simty {

void detail::throw_negative_interval_length() {
  throw std::invalid_argument("TimeInterval::from_length: negative length");
}

TimeInterval TimeInterval::hull(const TimeInterval& o) const {
  if (is_empty()) return o;
  if (o.is_empty()) return *this;
  return TimeInterval{std::min(start_, o.start_), std::max(end_, o.end_)};
}

TimeInterval TimeInterval::shifted(Duration d) const {
  if (is_empty()) return *this;
  return TimeInterval{start_ + d, end_ + d};
}

bool TimeInterval::operator==(const TimeInterval& o) const {
  if (is_empty() && o.is_empty()) return true;
  return start_ == o.start_ && end_ == o.end_;
}

std::string TimeInterval::to_string() const {
  if (is_empty()) return "[empty]";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.3fs, %.3fs]", start_.seconds_f(), end_.seconds_f());
  return buf;
}

}  // namespace simty
