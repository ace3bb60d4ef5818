#include "alarm/batch.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/strings.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

std::unique_ptr<Alarm> imperceptible_alarm(std::uint64_t id, std::int64_t nominal,
                                           std::int64_t repeat, ComponentSet hw_set,
                                           double alpha = 0.75, double beta = 0.96) {
  auto a = std::make_unique<Alarm>(
      AlarmId{id},
      AlarmSpec::repeating(str_cat("a", std::to_string(id)), AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(repeat), alpha, beta),
      at(nominal));
  a->record_delivery(hw_set, Duration::seconds(2));  // learn the profile
  a->reschedule(at(nominal));
  return a;
}

TEST(Batch, SingleMemberAttributesMirrorAlarm) {
  auto a = imperceptible_alarm(1, 100, 300, ComponentSet{Component::kWifi});
  Batch b(a.get());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.window_interval(), a->window_interval());
  EXPECT_EQ(b.grace_interval(), a->grace_interval());
  EXPECT_EQ(b.hardware(), (ComponentSet{Component::kWifi}));
  EXPECT_FALSE(b.perceptible());
  EXPECT_EQ(b.delivery_time(), at(100));
}

TEST(Batch, WindowIsIntersectionOfMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  batch.add(b.get());
  // Windows [0,225] and [100,325] -> [100,225].
  EXPECT_EQ(batch.window_interval(), (TimeInterval{at(100), at(225)}));
  // Graces [0,288] and [100,388] -> [100,288].
  EXPECT_EQ(batch.grace_interval(), (TimeInterval{at(100), at(288)}));
  // Delivery time is the max member nominal either way.
  EXPECT_EQ(batch.delivery_time(), at(100));
}

TEST(Batch, HardwareIsUnionOfMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 10, 300, ComponentSet{Component::kWps});
  Batch batch(a.get());
  batch.add(b.get());
  EXPECT_EQ(batch.hardware(),
            (ComponentSet{Component::kWifi, Component::kWps}));
}

TEST(Batch, PerceptibleIfAnyMemberIs) {
  auto quiet = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto loud = imperceptible_alarm(
      2, 10, 300, ComponentSet{Component::kSpeaker, Component::kVibrator});
  Batch batch(quiet.get());
  EXPECT_FALSE(batch.perceptible());
  batch.add(loud.get());
  EXPECT_TRUE(batch.perceptible());
}

TEST(Batch, EmptyWindowIntersectionAllowedForImperceptibleEntries) {
  // Two imperceptible alarms whose graces overlap but windows do not
  // (medium time similarity alignment).
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi}, 0.5, 0.96);
  auto b = imperceptible_alarm(2, 200, 300, ComponentSet{Component::kWifi}, 0.5, 0.96);
  Batch batch(a.get());
  batch.add(b.get());
  // Windows [0,150] vs [200,350] -> empty; graces [0,288] vs [200,488] -> ok.
  EXPECT_TRUE(batch.window_interval().is_empty());
  EXPECT_EQ(batch.grace_interval(), (TimeInterval{at(200), at(288)}));
  EXPECT_EQ(batch.delivery_time(), at(200));
}

TEST(Batch, PerceptibleEntryWithEmptyWindowThrowsOnDeliveryTime) {
  auto quiet = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi}, 0.1, 0.96);
  auto late = imperceptible_alarm(2, 250, 300, ComponentSet{Component::kWifi}, 0.1, 0.96);
  auto loud = imperceptible_alarm(
      3, 250, 300, ComponentSet{Component::kVibrator}, 0.1, 0.96);
  Batch batch(quiet.get());
  batch.add(late.get());   // imperceptible, empty window overlap: fine
  batch.add(loud.get());   // perceptible member with empty window overlap:
  EXPECT_THROW(batch.delivery_time(), std::logic_error);  // invariant violated
}

TEST(Batch, RemoveRecomputesAttributes) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWps});
  Batch batch(a.get());
  batch.add(b.get());
  EXPECT_TRUE(batch.remove(AlarmId{2}));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.window_interval(), a->window_interval());
  EXPECT_EQ(batch.hardware(), (ComponentSet{Component::kWifi}));
  EXPECT_FALSE(batch.remove(AlarmId{2}));  // already gone
  EXPECT_TRUE(batch.remove(AlarmId{1}));
  EXPECT_TRUE(batch.empty());
}

TEST(Batch, ContainsById) {
  auto a = imperceptible_alarm(7, 0, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  EXPECT_TRUE(batch.contains(AlarmId{7}));
  EXPECT_FALSE(batch.contains(AlarmId{8}));
}

TEST(Batch, DoubleAddRejected) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  EXPECT_THROW(batch.add(a.get()), std::logic_error);
}

TEST(Batch, ExpectedHoldIsMaxOfMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 10, 300, ComponentSet{Component::kWifi});
  // a and b both learned a 2 s hold; push b's profile to 10 s.
  b->record_delivery(ComponentSet{Component::kWifi}, Duration::seconds(26));
  Batch batch(a.get());
  batch.add(b.get());
  EXPECT_EQ(batch.expected_hold(), Duration::seconds(8));  // EMA: (2*3+26)/4
}

TEST(Batch, RefreshPicksUpRescheduledMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  a->reschedule(at(500));
  batch.refresh();
  EXPECT_EQ(batch.delivery_time(), at(500));
}

// Every attribute a policy or the queue reads from an entry.
void expect_same_entry(const Batch& got, const Batch& want) {
  EXPECT_EQ(got.members(), want.members());
  EXPECT_EQ(got.window_interval(), want.window_interval());
  EXPECT_EQ(got.grace_interval(), want.grace_interval());
  EXPECT_EQ(got.hardware(), want.hardware());
  EXPECT_EQ(got.perceptible(), want.perceptible());
  EXPECT_EQ(got.expected_hold(), want.expected_hold());
  if (!want.empty()) {
    EXPECT_EQ(got.delivery_time(), want.delivery_time());
  }
}

TEST(Batch, RecycledBatchMatchesAFreshOne) {
  // The manager clears delivered entries and refills them: nothing of the
  // old members may survive into the next entry.
  auto loud = imperceptible_alarm(
      1, 0, 300, ComponentSet{Component::kSpeaker, Component::kVibrator});
  auto busy = imperceptible_alarm(2, 10, 300, ComponentSet{Component::kWifi});
  busy->record_delivery(ComponentSet{Component::kWifi}, Duration::seconds(26));
  busy->reschedule(at(10));
  auto quiet = imperceptible_alarm(3, 400, 600, ComponentSet{Component::kAccelerometer});
  auto quiet2 = imperceptible_alarm(4, 450, 600, ComponentSet{Component::kWps});
  ASSERT_TRUE(loud->perceptible());
  ASSERT_FALSE(quiet->perceptible());

  // Perceptible, long-hold entry -> imperceptible members.
  Batch recycled(loud.get());
  recycled.add(busy.get());
  recycled.clear();
  expect_same_entry(recycled, Batch{});
  recycled.add(quiet.get());
  recycled.add(quiet2.get());
  Batch fresh(quiet.get());
  fresh.add(quiet2.get());
  expect_same_entry(recycled, fresh);

  // Imperceptible entry -> perceptible members.
  recycled.clear();
  expect_same_entry(recycled, Batch{});
  recycled.add(loud.get());
  recycled.add(busy.get());
  Batch fresh_loud(loud.get());
  fresh_loud.add(busy.get());
  expect_same_entry(recycled, fresh_loud);
}

TEST(Batch, DeliveryTimeOfEmptyBatchThrows) {
  Batch batch;
  EXPECT_THROW(batch.delivery_time(), std::logic_error);
}

// The delivery key is cached at mutation time; each test below pins it
// against the value the members imply and against delivery_key_current().

TEST(Batch, CachedDeliveryKeyFollowsAdd) {
  // Graces [0,288], [100,388], [50,338]: the grace start is the max nominal.
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWifi});
  auto c = imperceptible_alarm(3, 50, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  EXPECT_EQ(batch.delivery_time(), at(0));
  EXPECT_TRUE(batch.delivery_key_current());
  batch.add(b.get());
  EXPECT_EQ(batch.delivery_time(), at(100));
  EXPECT_TRUE(batch.delivery_key_current());
  batch.add(c.get());
  EXPECT_EQ(batch.delivery_time(), at(100));
  EXPECT_TRUE(batch.delivery_key_current());
}

TEST(Batch, CachedDeliveryKeyFollowsRemove) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  batch.add(b.get());
  ASSERT_EQ(batch.delivery_time(), at(100));
  ASSERT_TRUE(batch.remove(AlarmId{2}));
  EXPECT_EQ(batch.delivery_time(), at(0));
  EXPECT_TRUE(batch.delivery_key_current());
  ASSERT_TRUE(batch.remove(AlarmId{1}));
  EXPECT_THROW(batch.delivery_time(), std::logic_error);
  EXPECT_TRUE(batch.delivery_key_current());
}

TEST(Batch, RemovingTheMemberThatVoidedTheKeyRestoresIt) {
  // As in PerceptibleEntryWithEmptyWindowThrowsOnDeliveryTime: the loud
  // member leaves the entry perceptible with no window overlap, so the
  // entry has no key until it is removed again.
  auto quiet = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi}, 0.1, 0.96);
  auto late = imperceptible_alarm(2, 250, 300, ComponentSet{Component::kWifi}, 0.1, 0.96);
  auto loud = imperceptible_alarm(
      3, 250, 300, ComponentSet{Component::kVibrator}, 0.1, 0.96);
  Batch batch(quiet.get());
  batch.add(late.get());
  batch.add(loud.get());
  EXPECT_THROW(batch.delivery_time(), std::logic_error);
  EXPECT_TRUE(batch.delivery_key_current());
  ASSERT_TRUE(batch.remove(AlarmId{3}));
  EXPECT_EQ(batch.delivery_time(), at(250));
  EXPECT_TRUE(batch.delivery_key_current());
}

TEST(Batch, CachedDeliveryKeyGoesStaleUntilRefresh) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  batch.add(b.get());
  b->reschedule(at(200));
  // The key is not re-derived on read: the entry still reports the old
  // one, and the cross-check sees the difference.
  EXPECT_EQ(batch.delivery_time(), at(100));
  EXPECT_FALSE(batch.delivery_key_current());
  batch.refresh();
  EXPECT_EQ(batch.delivery_time(), at(200));
  EXPECT_TRUE(batch.delivery_key_current());
}

TEST(Batch, CachedDeliveryKeyFollowsClearAndRecycle) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWifi});
  auto later = imperceptible_alarm(3, 700, 600, ComponentSet{Component::kWps});
  Batch batch(a.get());
  batch.add(b.get());
  batch.clear();
  EXPECT_THROW(batch.delivery_time(), std::logic_error);
  EXPECT_TRUE(batch.delivery_key_current());
  // Refilled as the manager recycles an entry: only the new member counts.
  batch.add(later.get());
  EXPECT_EQ(batch.delivery_time(), at(700));
  EXPECT_TRUE(batch.delivery_key_current());
  // A one-shot (perceptible) member keys the entry on its window start.
  auto once = std::make_unique<Alarm>(
      AlarmId{4}, AlarmSpec::one_shot("once", AppId{1}, Duration::seconds(30)), at(710));
  batch.clear();
  batch.add(once.get());
  EXPECT_TRUE(batch.perceptible());
  EXPECT_EQ(batch.delivery_time(), at(710));
  EXPECT_TRUE(batch.delivery_key_current());
}

}  // namespace
}  // namespace simty::alarm
