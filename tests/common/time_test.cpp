#include "common/time.hpp"

#include <gtest/gtest.h>

namespace simty {
namespace {

TEST(Duration, NamedConstructorsAgree) {
  EXPECT_EQ(Duration::millis(1).us(), 1000);
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_EQ(Duration::minutes(2), Duration::seconds(120));
  EXPECT_EQ(Duration::hours(3), Duration::minutes(180));
}

TEST(Duration, FromSecondsRoundsToMicroseconds) {
  EXPECT_EQ(Duration::from_seconds(1.5), Duration::millis(1500));
  EXPECT_EQ(Duration::from_seconds(0.0000014).us(), 1);  // 1.4 µs -> 1 µs
  EXPECT_EQ(Duration::from_seconds(-2.25), -Duration::millis(2250));
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::seconds(10);
  const Duration b = Duration::seconds(4);
  EXPECT_EQ(a + b, Duration::seconds(14));
  EXPECT_EQ(a - b, Duration::seconds(6));
  EXPECT_EQ(-b, Duration::seconds(-4));
  EXPECT_EQ(a * 3, Duration::seconds(30));
  EXPECT_EQ(3 * a, Duration::seconds(30));
  EXPECT_EQ(a / 2, Duration::seconds(5));
}

TEST(Duration, FloatingScaleRounds) {
  EXPECT_EQ(Duration::seconds(60) * 0.75, Duration::seconds(45));
  EXPECT_EQ(0.96 * Duration::seconds(100), Duration::seconds(96));
  // 1 µs * 0.4 rounds to 0.
  EXPECT_EQ(Duration::micros(1) * 0.4, Duration::zero());
}

TEST(Duration, FloatingScaleRoundsHalfAwayFromZero) {
  // Exactly ±0.5 µs rounds away from zero, not to even.
  EXPECT_EQ(Duration::micros(1) * 0.5, Duration::micros(1));
  EXPECT_EQ(Duration::micros(1) * -0.5, Duration::micros(-1));
  EXPECT_EQ(Duration::micros(-1) * 0.5, Duration::micros(-1));
  EXPECT_EQ(Duration::micros(5) * 0.5, Duration::micros(3));
  EXPECT_EQ(Duration::micros(-5) * 0.5, Duration::micros(-3));
  EXPECT_EQ(-0.5 * Duration::micros(3), Duration::micros(-2));
  // Negative durations below the half point round toward zero.
  EXPECT_EQ(Duration::micros(-1) * 0.4, Duration::zero());
  EXPECT_EQ(Duration::micros(-7) * 0.3, Duration::micros(-2));
  EXPECT_EQ(Duration::seconds(-60) * 0.75, Duration::seconds(-45));
}

TEST(Duration, CompoundAssignment) {
  Duration d = Duration::seconds(1);
  d += Duration::seconds(2);
  EXPECT_EQ(d, Duration::seconds(3));
  d -= Duration::millis(500);
  EXPECT_EQ(d, Duration::millis(2500));
}

TEST(Duration, Ratio) {
  EXPECT_DOUBLE_EQ(Duration::seconds(3).ratio(Duration::seconds(4)), 0.75);
  EXPECT_THROW(Duration::seconds(1).ratio(Duration::zero()), std::invalid_argument);
}

TEST(Duration, Predicates) {
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_FALSE(Duration::zero().is_negative());
  EXPECT_TRUE((-Duration::millis(1)).is_negative());
}

TEST(Duration, Ordering) {
  EXPECT_LT(Duration::millis(999), Duration::seconds(1));
  EXPECT_GT(Duration::hours(1), Duration::minutes(59));
}

TEST(Duration, ToStringPicksNaturalUnit) {
  EXPECT_EQ(Duration::hours(3).to_string(), "3h");
  EXPECT_EQ(Duration::seconds(90).to_string(), "90s");
  EXPECT_EQ(Duration::millis(180).to_string(), "180ms");
  EXPECT_EQ(Duration::micros(7).to_string(), "7us");
}

TEST(TimePoint, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::origin() + Duration::seconds(100);
  EXPECT_EQ(t.us(), 100'000'000);
  EXPECT_EQ(t - Duration::seconds(40), TimePoint::from_us(60'000'000));
  EXPECT_EQ(t - TimePoint::origin(), Duration::seconds(100));
}

TEST(TimePoint, Ordering) {
  EXPECT_LT(TimePoint::origin(), TimePoint::from_us(1));
  EXPECT_EQ(TimePoint::from_us(5), TimePoint::origin() + Duration::micros(5));
}

TEST(TimePoint, SecondsView) {
  EXPECT_DOUBLE_EQ((TimePoint::origin() + Duration::millis(1500)).seconds_f(), 1.5);
}

}  // namespace
}  // namespace simty
