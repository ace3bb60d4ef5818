#pragma once
// Strong time types for the SIMTY simulator.
//
// All simulation time is kept as signed 64-bit microsecond ticks. Strong
// types prevent the classic unit bugs (ms vs s) that plague power modelling
// code, and make Duration/TimePoint arithmetic explicit: a TimePoint is a
// position on the simulated timeline, a Duration is a distance on it.

#include <cmath>
#include <compare>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>

namespace simty {

/// A signed span of simulated time with microsecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  /// Named constructors; prefer these over the raw-tick constructor.
  static constexpr Duration micros(std::int64_t us) { return Duration{us}; }
  static constexpr Duration millis(std::int64_t ms) { return Duration{ms * 1000}; }
  static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000}; }
  static constexpr Duration minutes(std::int64_t m) { return Duration{m * 60'000'000}; }
  static constexpr Duration hours(std::int64_t h) { return Duration{h * 3'600'000'000LL}; }

  /// Builds a duration from a floating-point second count (rounded to µs).
  static Duration from_seconds(double s);

  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t us() const { return us_; }
  constexpr std::int64_t ms() const { return us_ / 1000; }
  constexpr double seconds_f() const { return static_cast<double>(us_) / 1e6; }

  constexpr bool is_zero() const { return us_ == 0; }
  constexpr bool is_negative() const { return us_ < 0; }

  constexpr Duration operator+(Duration o) const { return Duration{us_ + o.us_}; }
  constexpr Duration operator-(Duration o) const { return Duration{us_ - o.us_}; }
  constexpr Duration operator-() const { return Duration{-us_}; }
  constexpr Duration& operator+=(Duration o) { us_ += o.us_; return *this; }
  constexpr Duration& operator-=(Duration o) { us_ -= o.us_; return *this; }

  /// Scales by an integer or floating factor (floating result rounds to µs).
  template <std::integral I>
  constexpr Duration operator*(I k) const {
    return Duration{us_ * static_cast<std::int64_t>(k)};
  }
  Duration operator*(double k) const {
    return Duration{
        static_cast<std::int64_t>(std::llround(static_cast<double>(us_) * k))};
  }
  Duration operator/(std::int64_t k) const { return Duration{us_ / k}; }

  /// Ratio of two durations as a double; divisor must be nonzero.
  double ratio(Duration denom) const;

  constexpr auto operator<=>(const Duration&) const = default;

  /// Human-readable rendering, e.g. "2.5s", "180ms", "3h".
  std::string to_string() const;

 private:
  explicit constexpr Duration(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

template <std::integral I>
constexpr Duration operator*(I k, Duration d) {
  return d * k;
}
inline Duration operator*(double k, Duration d) { return d * k; }

/// An absolute instant on the simulated timeline (µs since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint origin() { return TimePoint{0}; }
  static constexpr TimePoint from_us(std::int64_t us) { return TimePoint{us}; }
  static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t us() const { return us_; }
  constexpr double seconds_f() const { return static_cast<double>(us_) / 1e6; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint{us_ + d.us()}; }
  constexpr TimePoint operator-(Duration d) const { return TimePoint{us_ - d.us()}; }
  constexpr Duration operator-(TimePoint o) const { return Duration::micros(us_ - o.us_); }
  constexpr TimePoint& operator+=(Duration d) { us_ += d.us(); return *this; }

  constexpr auto operator<=>(const TimePoint&) const = default;

  /// Renders as seconds with millisecond precision, e.g. "t=123.456s".
  std::string to_string() const;

 private:
  explicit constexpr TimePoint(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

}  // namespace simty
