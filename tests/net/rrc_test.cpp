#include "net/rrc.hpp"

#include <gtest/gtest.h>

namespace simty::net {
namespace {

class RailProbe : public hw::PowerListener {
 public:
  void on_component_power(TimePoint, hw::Component c, bool on, Power level) override {
    if (c == hw::Component::kCellular) levels.push_back(on ? level.mw() : 0.0);
  }
  void on_impulse(TimePoint, Energy e, hw::ImpulseKind,
                  std::optional<hw::Component> component) override {
    impulses.emplace_back(component, e.mj());
  }
  std::vector<double> levels;
  std::vector<std::pair<std::optional<hw::Component>, double>> impulses;
};

class RrcTest : public ::testing::Test {
 protected:
  RrcTest() {
    bus_.add_listener(&probe_);
    rrc_ = std::make_unique<RrcMachine>(sim_, config_, bus_);
  }
  TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }
  void run_to(std::int64_t s) { sim_.run_until(at(s)); }
  sim::Simulator sim_;
  RrcConfig config_;
  hw::PowerBus bus_;
  RailProbe probe_;
  std::unique_ptr<RrcMachine> rrc_;
};

TEST_F(RrcTest, StartsIdle) {
  EXPECT_EQ(rrc_->state(), RrcState::kIdle);
  EXPECT_EQ(rrc_->idle_promotions(), 0u);
}

TEST_F(RrcTest, ActivityPromotesToDchAndPaysSignaling) {
  rrc_->data_activity(Duration::seconds(2));
  EXPECT_EQ(rrc_->state(), RrcState::kDch);
  EXPECT_EQ(rrc_->idle_promotions(), 1u);
  EXPECT_EQ(rrc_->fach_promotions(), 0u);
  ASSERT_EQ(probe_.impulses.size(), 1u);
  // Promotions are published unattributed (see DESIGN.md).
  EXPECT_EQ(probe_.impulses[0].first, std::nullopt);
  EXPECT_DOUBLE_EQ(probe_.impulses[0].second, 600.0);
  ASSERT_FALSE(probe_.levels.empty());
  EXPECT_DOUBLE_EQ(probe_.levels.back(), 800.0);
}

TEST_F(RrcTest, DemotesThroughFachToIdleOnInactivity) {
  rrc_->data_activity(Duration::seconds(2));
  // DCH until busy end (2 s) + T1 (5 s) = 7 s; FACH until 7 + 12 = 19 s.
  run_to(6);
  EXPECT_EQ(rrc_->state(), RrcState::kDch);
  run_to(8);
  EXPECT_EQ(rrc_->state(), RrcState::kFach);
  EXPECT_DOUBLE_EQ(probe_.levels.back(), 460.0);
  run_to(18);
  EXPECT_EQ(rrc_->state(), RrcState::kFach);
  run_to(20);
  EXPECT_EQ(rrc_->state(), RrcState::kIdle);
  EXPECT_DOUBLE_EQ(probe_.levels.back(), 0.0);

  rrc_->finalize(at(20));
  EXPECT_EQ(rrc_->time_in(RrcState::kDch), Duration::seconds(7));
  EXPECT_EQ(rrc_->time_in(RrcState::kFach), Duration::seconds(12));
  EXPECT_EQ(rrc_->time_in(RrcState::kIdle), Duration::seconds(1));
}

TEST_F(RrcTest, FachPromotionIsCheaper) {
  rrc_->data_activity(Duration::seconds(1));
  run_to(7);  // now in FACH
  ASSERT_EQ(rrc_->state(), RrcState::kFach);
  rrc_->data_activity(Duration::seconds(1));
  EXPECT_EQ(rrc_->state(), RrcState::kDch);
  EXPECT_EQ(rrc_->fach_promotions(), 1u);
  EXPECT_EQ(rrc_->idle_promotions(), 1u);
  ASSERT_EQ(probe_.impulses.size(), 2u);
  EXPECT_EQ(probe_.impulses.back().first, std::nullopt);
  EXPECT_DOUBLE_EQ(probe_.impulses.back().second, 250.0);
}

TEST_F(RrcTest, OverlappingActivityExtendsBusyWindowWithoutNewPromotion) {
  rrc_->data_activity(Duration::seconds(4));
  run_to(2);
  rrc_->data_activity(Duration::seconds(4));  // still DCH: no promotion cost
  EXPECT_EQ(rrc_->idle_promotions(), 1u);
  EXPECT_EQ(probe_.impulses.size(), 1u);
  // Busy until 6 s; DCH until 11 s.
  run_to(10);
  EXPECT_EQ(rrc_->state(), RrcState::kDch);
  run_to(12);
  EXPECT_EQ(rrc_->state(), RrcState::kFach);
}

TEST_F(RrcTest, BatchedActivityPaysOnePromotion) {
  // Three back-to-back syncs (an aligned entry) vs three spread 60 s apart.
  for (int i = 0; i < 3; ++i) rrc_->data_activity(Duration::seconds(2));
  EXPECT_EQ(rrc_->idle_promotions(), 1u);

  RailProbe probe2;
  sim::Simulator sim2;
  hw::PowerBus bus2;
  bus2.add_listener(&probe2);
  RrcMachine spread(sim2, config_, bus2);
  for (int i = 0; i < 3; ++i) {
    sim2.schedule_at(TimePoint::origin() + Duration::seconds(i * 60),
                     [&] { spread.data_activity(Duration::seconds(2)); });
  }
  sim2.run_until(TimePoint::origin() + Duration::seconds(300));
  EXPECT_EQ(spread.idle_promotions(), 3u);  // each sync pays the full tail
}

TEST_F(RrcTest, PromotionMidDemotionChainKeepsAccountingExact) {
  // Regression for the finalize/accounting bug: a FACH->DCH re-promotion in
  // the middle of a demotion chain must leave per-state times that sum to
  // the horizon exactly, with the final open span flushed by finalize().
  rrc_->data_activity(Duration::seconds(2));  // DCH 0..7, FACH 7..19
  run_to(10);
  ASSERT_EQ(rrc_->state(), RrcState::kFach);
  rrc_->data_activity(Duration::seconds(1));  // re-promote mid-chain at 10 s
  EXPECT_EQ(rrc_->state(), RrcState::kDch);
  EXPECT_EQ(rrc_->idle_promotions(), 1u);
  EXPECT_EQ(rrc_->fach_promotions(), 1u);
  // Busy until 11 s: DCH 10..16, FACH 16..28, IDLE from 28.
  run_to(30);
  EXPECT_EQ(rrc_->state(), RrcState::kIdle);

  rrc_->finalize(at(30));
  EXPECT_EQ(rrc_->time_in(RrcState::kDch), Duration::seconds(7 + 6));
  EXPECT_EQ(rrc_->time_in(RrcState::kFach), Duration::seconds(3 + 12));
  EXPECT_EQ(rrc_->time_in(RrcState::kIdle), Duration::seconds(2));
  const Duration total = rrc_->time_in(RrcState::kIdle) +
                         rrc_->time_in(RrcState::kFach) +
                         rrc_->time_in(RrcState::kDch);
  EXPECT_EQ(total, Duration::seconds(30));
}

TEST_F(RrcTest, FinalizeIsIdempotentAtAFixedHorizon) {
  rrc_->data_activity(Duration::seconds(2));
  run_to(30);
  rrc_->finalize(at(30));
  const Duration idle_once = rrc_->time_in(RrcState::kIdle);
  rrc_->finalize(at(30));  // second flush at the same horizon adds nothing
  EXPECT_EQ(rrc_->time_in(RrcState::kIdle), idle_once);
}

TEST_F(RrcTest, FinalizeRejectsHorizonBeforeSpanStart) {
  rrc_->data_activity(Duration::seconds(2));
  run_to(10);  // FACH span opened at 7 s
  EXPECT_THROW(rrc_->finalize(at(5)), std::logic_error);
}

TEST_F(RrcTest, SkippingFinalizeDropsTheOpenSpan) {
  // Documents what the wiring bugfix is protecting against: without the
  // finalize() flush the trailing IDLE span is silently missing.
  rrc_->data_activity(Duration::seconds(2));
  run_to(30);
  const Duration unflushed = rrc_->time_in(RrcState::kIdle) +
                             rrc_->time_in(RrcState::kFach) +
                             rrc_->time_in(RrcState::kDch);
  EXPECT_LT(unflushed, Duration::seconds(30));
}

TEST_F(RrcTest, NegativeActivityRejected) {
  EXPECT_THROW(rrc_->data_activity(-Duration::seconds(1)), std::logic_error);
}

TEST_F(RrcTest, StateNames) {
  EXPECT_STREQ(to_string(RrcState::kIdle), "IDLE");
  EXPECT_STREQ(to_string(RrcState::kFach), "FACH");
  EXPECT_STREQ(to_string(RrcState::kDch), "DCH");
}

}  // namespace
}  // namespace simty::net
