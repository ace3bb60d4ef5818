#include "apps/trace_replay.hpp"

#include <gtest/gtest.h>

#include "alarm/native_policy.hpp"
#include "apps/app_catalog.hpp"
#include "snapshot/snapshot.hpp"
#include "support/framework_fixture.hpp"

namespace simty::apps {
namespace {

TEST(RecordTrace, ProducesRequestedLengthWithProfileHardware) {
  const AppProfile p = profile_by_name("FollowMee");
  const AppTrace trace = record_trace(p, 100, 42);
  EXPECT_EQ(trace.app_name, "FollowMee");
  ASSERT_EQ(trace.entries.size(), 100u);
  for (const TraceEntry& e : trace.entries) {
    EXPECT_EQ(e.hardware, p.hardware);
    EXPECT_GT(e.hold, Duration::zero());
    EXPECT_LE(e.hold, p.repeat * 0.5);  // clamped
  }
}

TEST(RecordTrace, DeterministicForSameSeedDivergentAcrossSeeds) {
  const AppProfile p = profile_by_name("Moves");
  const AppTrace a = record_trace(p, 50, 7);
  const AppTrace b = record_trace(p, 50, 7);
  const AppTrace c = record_trace(p, 50, 8);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.entries[i].hold, b.entries[i].hold);
  }
  bool differs = false;
  for (std::size_t i = 0; i < 50; ++i) {
    differs = differs || a.entries[i].hold != c.entries[i].hold;
  }
  EXPECT_TRUE(differs);
}

TEST(RecordTrace, HoldsAreHeavyTailedAroundBase) {
  const AppProfile p = profile_by_name("Cell Tracker");
  const AppTrace trace = record_trace(p, 2000, 11);
  double sum = 0.0;
  Duration lo = Duration::max(), hi = Duration::zero();
  for (const TraceEntry& e : trace.entries) {
    sum += e.hold.seconds_f();
    lo = std::min(lo, e.hold);
    hi = std::max(hi, e.hold);
  }
  const double mean = sum / 2000.0;
  // Lognormal-ish: mean near base (10 s) but spread is wide.
  EXPECT_GT(mean, 7.0);
  EXPECT_LT(mean, 14.0);
  EXPECT_LT(lo, p.base_hold * 0.5);
  EXPECT_GT(hi, p.base_hold * 1.8);
}

TEST(RecordTrace, RejectsZeroDeliveries) {
  EXPECT_THROW(record_trace(profile_by_name("Moves"), 0, 1), std::logic_error);
}

TEST(ImitatedApp, RejectsEmptyTrace) {
  EXPECT_THROW(ImitatedApp(profile_by_name("Moves"), AppTrace{"Moves", {}}),
               std::logic_error);
}

// Exposes the protected task hook so replay can be stepped without a
// simulator.
class SteppedImitation : public ImitatedApp {
 public:
  using ImitatedApp::ImitatedApp;
  alarm::TaskSpec step() { return next_task(); }
};

std::string save_app(const ImitatedApp& app) {
  snapshot::Writer w;
  w.begin_section("app", 1);
  app.save(w);
  w.end_section();
  return w.finish();
}

void restore_app(ImitatedApp& app, const std::string& bytes) {
  const snapshot::Reader r(bytes);
  snapshot::SectionReader s = r.section("app", 1);
  app.restore(s);
}

TEST(ImitatedApp, OnDemandReplayMatchesRecordedTraceAcrossWrap) {
  const AppProfile p = profile_by_name("Cell Tracker");
  constexpr std::size_t kLength = 16;
  const AppTrace recorded = record_trace(p, kLength, 1234);
  SteppedImitation app(p, kLength, 1234);
  EXPECT_TRUE(app.trace().entries.empty());  // nothing drawn up front
  for (std::size_t i = 0; i < 3 * kLength + 5; ++i) {
    const alarm::TaskSpec t = app.step();
    EXPECT_EQ(t.hold, recorded.entries[i % kLength].hold) << "step " << i;
    EXPECT_EQ(t.hardware, recorded.entries[i % kLength].hardware);
    EXPECT_EQ(app.trace().entries.size(), std::min(i + 1, kLength));
  }
}

TEST(ImitatedApp, RestoreAheadOfDrawnPrefixResumesExactly) {
  const AppProfile p = profile_by_name("Moves");
  constexpr std::size_t kLength = 10;
  const AppTrace recorded = record_trace(p, kLength, 77);
  for (const std::size_t cursor : {std::size_t{0}, std::size_t{4}, kLength - 1}) {
    SteppedImitation source(p, kLength, 77);
    for (std::size_t i = 0; i < cursor; ++i) source.step();
    SteppedImitation resumed(p, kLength, 77);
    restore_app(resumed, save_app(source));
    for (std::size_t i = cursor; i < cursor + kLength + 2; ++i) {
      EXPECT_EQ(resumed.step().hold, recorded.entries[i % kLength].hold)
          << "cursor " << cursor << ", step " << i;
    }
  }
}

TEST(ImitatedApp, RestoreRejectsCursorAtOrPastTraceLength) {
  const AppProfile p = profile_by_name("Moves");
  SteppedImitation longer(p, 8, 77);
  for (int i = 0; i < 5; ++i) longer.step();
  const std::string at_five = save_app(longer);
  SteppedImitation exact(p, 5, 77);  // cursor == length
  EXPECT_THROW(restore_app(exact, at_five), std::logic_error);
  SteppedImitation shorter(p, 3, 77);  // cursor > length
  EXPECT_THROW(restore_app(shorter, at_five), std::logic_error);
  SteppedImitation fits(p, 6, 77);
  EXPECT_NO_THROW(restore_app(fits, at_five));
}

TEST(ImitatedApp, RejectsZeroTraceLength) {
  EXPECT_THROW(ImitatedApp(profile_by_name("Moves"), 0, 1), std::logic_error);
}

class ImitatedAppTest : public test::FrameworkFixture {};

TEST_F(ImitatedAppTest, ReplaysTraceCyclically) {
  init(std::make_unique<alarm::NativePolicy>());
  AppProfile p = profile_by_name("Noom Walk");
  AppTrace trace{"Noom Walk",
                 {TraceEntry{p.hardware, Duration::seconds(1)},
                  TraceEntry{p.hardware, Duration::seconds(2)},
                  TraceEntry{p.hardware, Duration::seconds(3)}}};
  ImitatedApp app(p, trace);
  app.launch(*manager_, at(0), alarm::AppId{1});
  sim_.run_until(at(60 * 7 + 30));  // 7 deliveries at ReIn 60
  ASSERT_GE(deliveries_.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(deliveries_[i].hold, Duration::seconds(static_cast<std::int64_t>(i % 3 + 1)))
        << "delivery " << i;
  }
}

TEST_F(ImitatedAppTest, IdenticalTraceGivesIdenticalRunsAcrossPolicies) {
  // The point of imitation (§4.1): the same behaviour is replayed under
  // different policies. Verify the app-side holds do not depend on any RNG.
  init(std::make_unique<alarm::NativePolicy>());
  const AppProfile p = profile_by_name("Family Locator");
  const AppTrace trace = record_trace(p, 64, 99);
  ImitatedApp a(p, trace);
  ImitatedApp b(p, trace);
  a.launch(*manager_, at(0), alarm::AppId{1});
  sim_.run_until(at(2000));
  const auto first_run = deliveries_;
  // b is fresh; its first holds must equal a's first holds.
  ASSERT_GE(first_run.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first_run[i].hold, trace.entries[i].hold);
  }
  (void)b;
}

}  // namespace
}  // namespace simty::apps
