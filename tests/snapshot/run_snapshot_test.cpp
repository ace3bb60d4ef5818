// Checkpoint/resume bit-identity: a run saved at a quiescent instant and
// resumed in a fresh Run must finish byte-identical to a straight run — the
// delivery CSV, the binary trace, and every result field. This is the
// contract the warm-start sweep server and the fleet shard checkpoints are
// built on, so it is tested across all four policies, with doze on, and
// with a checkpoint inside a same-instant batch neighborhood.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/run.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {
namespace {

ExperimentConfig base_config(PolicyKind policy) {
  ExperimentConfig config;
  config.policy = policy;
  config.workload = WorkloadKind::kLight;
  config.duration = Duration::hours(2);
  config.seed = 7;
  config.capture_delivery_log = true;
  return config;
}

/// Every scalar field must match EXACTLY — bit-identity, not tolerance.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.energy.sleep.mj(), b.energy.sleep.mj());
  EXPECT_EQ(a.energy.waking.mj(), b.energy.waking.mj());
  EXPECT_EQ(a.energy.awake_base.mj(), b.energy.awake_base.mj());
  EXPECT_EQ(a.energy.wake_transitions.mj(), b.energy.wake_transitions.mj());
  EXPECT_EQ(a.energy.component_active.mj(), b.energy.component_active.mj());
  EXPECT_EQ(a.energy.component_activation.mj(), b.energy.component_activation.mj());
  for (std::size_t i = 0; i < a.energy.per_component.size(); ++i) {
    EXPECT_EQ(a.energy.per_component[i].mj(), b.energy.per_component[i].mj());
  }
  EXPECT_EQ(a.average_power_mw, b.average_power_mw);
  EXPECT_EQ(a.projected_standby_hours, b.projected_standby_hours);
  EXPECT_EQ(a.delay_perceptible, b.delay_perceptible);
  EXPECT_EQ(a.delay_imperceptible, b.delay_imperceptible);
  EXPECT_EQ(a.delay_imperceptible_p95, b.delay_imperceptible_p95);
  ASSERT_EQ(a.wakeups.size(), b.wakeups.size());
  for (std::size_t i = 0; i < a.wakeups.size(); ++i) {
    EXPECT_EQ(a.wakeups[i].hardware, b.wakeups[i].hardware);
    EXPECT_EQ(a.wakeups[i].actual, b.wakeups[i].actual);
    EXPECT_EQ(a.wakeups[i].expected, b.wakeups[i].expected);
  }
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.batches_delivered, b.batches_delivered);
  EXPECT_EQ(a.one_shots, b.one_shots);
  EXPECT_EQ(a.awake_seconds, b.awake_seconds);
  EXPECT_EQ(a.asleep_seconds, b.asleep_seconds);
  EXPECT_EQ(a.worst_gap_ratio, b.worst_gap_ratio);
  EXPECT_EQ(a.gap_violations, b.gap_violations);
  EXPECT_EQ(a.perceptible_window_misses, b.perceptible_window_misses);
  EXPECT_EQ(a.pages_answered, b.pages_answered);
  EXPECT_EQ(a.page_delay_avg_s, b.page_delay_avg_s);
  EXPECT_EQ(a.page_delay_p95_s, b.page_delay_p95_s);
  EXPECT_EQ(a.drx_listen_seconds, b.drx_listen_seconds);
  EXPECT_EQ(a.wur_listen_seconds, b.wur_listen_seconds);
  EXPECT_EQ(a.wur_triggers, b.wur_triggers);
}

class RunSnapshotPolicyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(RunSnapshotPolicyTest, CheckpointResumeMatchesStraightRun) {
  const ExperimentConfig config = base_config(GetParam());

  exp::Run straight(config);
  const RunResult expected = straight.finish();
  const std::string expected_csv = straight.delivery_log().to_csv();

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
  const std::string snap = first.save_snapshot();

  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  const RunResult actual = resumed.finish();

  expect_identical(expected, actual);
  EXPECT_EQ(expected_csv, resumed.delivery_log().to_csv());
}

TEST_P(RunSnapshotPolicyTest, SnapshotIsDeterministic) {
  const ExperimentConfig config = base_config(GetParam());
  const TimePoint checkpoint = TimePoint::origin() + Duration::minutes(45);

  exp::Run a(config);
  a.advance_to_quiescent(checkpoint);
  exp::Run b(config);
  b.advance_to_quiescent(checkpoint);
  EXPECT_EQ(a.save_snapshot(), b.save_snapshot());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RunSnapshotPolicyTest,
                         ::testing::Values(PolicyKind::kNative, PolicyKind::kSimty,
                                           PolicyKind::kExact,
                                           PolicyKind::kSimtyDuration),
                         [](const auto& param_info) {
                           // gtest names must be alnum: SIMTY-DUR -> SIMTY_DUR.
                           std::string name = to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RunSnapshotTest, BinaryTraceSurvivesCheckpoint) {
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  trace::Tracer straight_tracer;
  config.tracer = &straight_tracer;
  {
    exp::Run straight(config);
    straight.finish();
  }

  trace::Tracer prefix_tracer;
  config.tracer = &prefix_tracer;
  std::string snap;
  {
    exp::Run first(config);
    first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
    snap = first.save_snapshot();
  }

  trace::Tracer resumed_tracer;
  config.tracer = &resumed_tracer;
  {
    exp::Run resumed(config);
    resumed.restore_snapshot(snap);
    resumed.finish();
  }
  EXPECT_TRUE(trace::diff_traces(straight_tracer, resumed_tracer).equal);
  EXPECT_EQ(straight_tracer.chrome_json(), resumed_tracer.chrome_json());
}

TEST(RunSnapshotTest, CheckpointResumeWithDozeMatches) {
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.doze = true;

  exp::Run straight(config);
  const RunResult expected = straight.finish();

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::minutes(70));
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  expect_identical(expected, resumed.finish());
}

TEST(RunSnapshotTest, CheckpointInsideBatchNeighborhoodMatches) {
  // Checkpoint at an instant chosen per-delivery: right after a batch of
  // size >= 2 delivered (a group of same-instant deliveries just fired).
  // advance_to_quiescent steps past the in-flight wake session, so the
  // snapshot lands between two batch groups, never inside one — this test
  // pins that the surrounding machinery (same-instant pops, wakelock tails,
  // device sleep-back) restores exactly.
  ExperimentConfig probe = base_config(PolicyKind::kSimty);
  TimePoint batch_instant;
  probe.extra_delivery_observer = [&](const alarm::DeliveryRecord& r) {
    if (batch_instant == TimePoint() && r.batch_size >= 2 &&
        r.delivered > TimePoint::origin() + Duration::minutes(30)) {
      batch_instant = r.delivered;
    }
  };
  {
    exp::Run probe_run(probe);
    probe_run.finish();
  }
  ASSERT_NE(batch_instant, TimePoint()) << "workload produced no batched delivery";

  const ExperimentConfig config = base_config(PolicyKind::kSimty);
  exp::Run straight(config);
  const RunResult expected = straight.finish();

  exp::Run first(config);
  first.advance_to_quiescent(batch_instant);
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  const RunResult actual = resumed.finish();
  expect_identical(expected, actual);
  EXPECT_EQ(straight.delivery_log().to_csv(), resumed.delivery_log().to_csv());
}

TEST(RunSnapshotTest, BetaSwitchPrefixIsSharedAcrossSweepPoints) {
  // The warm-start lever: configs differing only in beta_switch.beta
  // produce byte-identical snapshots before the switch instant, and a
  // prefix saved under one β resumes correctly under another.
  ExperimentConfig lo = base_config(PolicyKind::kSimty);
  lo.beta_switch = ExperimentConfig::BetaSwitch{Duration::hours(1), 0.3};
  ExperimentConfig hi = lo;
  hi.beta_switch->beta = 0.9;

  const TimePoint checkpoint = TimePoint::origin() + Duration::minutes(50);
  exp::Run run_lo(lo);
  run_lo.advance_to_quiescent(checkpoint);
  const std::string snap = run_lo.save_snapshot();
  {
    exp::Run run_hi(hi);
    run_hi.advance_to_quiescent(checkpoint);
    EXPECT_EQ(snap, run_hi.save_snapshot()) << "prefix depends on beta";
  }

  // Straight run under hi's β vs warm start from lo's prefix snapshot.
  exp::Run straight(hi);
  const RunResult expected = straight.finish();
  exp::Run warm(hi);
  warm.restore_snapshot(snap);
  const RunResult actual = warm.finish();
  expect_identical(expected, actual);
  EXPECT_EQ(straight.delivery_log().to_csv(), warm.delivery_log().to_csv());
}

TEST(RunSnapshotTest, CheckpointResumeWithDrxMatches) {
  // The paging occasion grid runs every 1.28 s, so an hour-mark checkpoint
  // lands between DRX cycles with pending occasion/arrival events and
  // (possibly) queued pages — all of which must survive the trip.
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.drx.emplace();

  exp::Run straight(config);
  const RunResult expected = straight.finish();
  EXPECT_GT(expected.pages_answered, 0.0);
  EXPECT_GT(expected.drx_listen_seconds, 0.0);

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  expect_identical(expected, resumed.finish());
}

TEST(RunSnapshotTest, CheckpointResumeWithWurMatches) {
  // WuR mode: the receiver's listen rail and any armed batched-answer
  // event serialize with the run.
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.drx.emplace();
  config.drx->wur = true;
  config.drx->wur_delay_budget = Duration::seconds(10);

  exp::Run straight(config);
  const RunResult expected = straight.finish();
  EXPECT_GT(expected.pages_answered, 0.0);
  EXPECT_GT(expected.wur_triggers, 0.0);
  EXPECT_GT(expected.wur_listen_seconds, 0.0);
  EXPECT_EQ(expected.drx_listen_seconds, 0.0);

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::minutes(70));
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  expect_identical(expected, resumed.finish());
}

TEST(RunSnapshotTest, SnapshotWithDrxIsDeterministic) {
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.drx.emplace();
  config.drx->wur = true;
  const TimePoint checkpoint = TimePoint::origin() + Duration::minutes(45);

  exp::Run a(config);
  a.advance_to_quiescent(checkpoint);
  exp::Run b(config);
  b.advance_to_quiescent(checkpoint);
  EXPECT_EQ(a.save_snapshot(), b.save_snapshot());
}

TEST(RunSnapshotTest, RestoreRejectsPagingConfigMismatch) {
  // A snapshot taken with the paging scenario enabled carries cellular (and
  // wur) sections; restoring it into a run configured without them — or
  // vice versa — is a config mismatch, not silent divergence.
  ExperimentConfig with_drx = base_config(PolicyKind::kSimty);
  with_drx.drx.emplace();
  exp::Run drx_run(with_drx);
  drx_run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const std::string drx_snap = drx_run.save_snapshot();

  const ExperimentConfig plain = base_config(PolicyKind::kSimty);
  exp::Run plain_run(plain);
  plain_run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const std::string plain_snap = plain_run.save_snapshot();

  exp::Run into_plain(plain);
  EXPECT_THROW(into_plain.restore_snapshot(drx_snap), std::logic_error);
  exp::Run into_drx(with_drx);
  EXPECT_THROW(into_drx.restore_snapshot(plain_snap), std::logic_error);

  ExperimentConfig with_wur = with_drx;
  with_wur.drx->wur = true;
  exp::Run into_wur(with_wur);
  EXPECT_THROW(into_wur.restore_snapshot(drx_snap), std::logic_error);
}

TEST(RunSnapshotTest, RestoreRejectsHorizonMismatch) {
  const ExperimentConfig config = base_config(PolicyKind::kNative);
  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const std::string snap = first.save_snapshot();

  ExperimentConfig longer = config;
  longer.duration = Duration::hours(3);
  exp::Run other(longer);
  EXPECT_THROW(other.restore_snapshot(snap), std::logic_error);
}

/// Little-endian unsigned integer of `width` bytes at `at`.
std::uint64_t read_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes.at(at + static_cast<std::size_t>(i)));
  }
  return v;
}

/// Rewrites the recorded schema version of every section of a snapshot
/// container (layout in snapshot/snapshot.hpp); payloads stay untouched.
std::string with_section_version(std::string bytes, std::uint32_t version) {
  std::size_t pos = 8 + 4;  // magic, format version
  const std::uint64_t count = read_le(bytes, pos, 4);
  pos += 4;
  for (std::uint64_t s = 0; s < count; ++s) {
    pos += 4 + read_le(bytes, pos, 4);  // name
    for (std::size_t i = 0; i < 4; ++i) {
      bytes.at(pos + i) = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    pos += 4;
    pos += 8 + read_le(bytes, pos, 8);  // payload
  }
  EXPECT_EQ(pos, bytes.size());
  return bytes;
}

TEST(RunSnapshotTest, RestoreRejectsOlderSectionVersions) {
  // Version 2 alarms sections carried two per-queue counters that version 3
  // dropped, version 3 sim sections carried the staged-batch queue layout,
  // and version 4 tracer sections carried a ring drop count; an old
  // snapshot must fail loudly instead of being misread.
  const ExperimentConfig config = base_config(PolicyKind::kSimty);
  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const std::string snap = first.save_snapshot();

  exp::Run same(config);
  EXPECT_NO_THROW(same.restore_snapshot(with_section_version(snap, 5)));
  for (const std::uint32_t version : {2u, 3u, 4u}) {
    exp::Run old(config);
    EXPECT_THROW(old.restore_snapshot(with_section_version(snap, version)),
                 std::logic_error)
        << "version " << version;
  }
}

TEST(RunSnapshotTest, SaveRequiresQuiescence) {
  const ExperimentConfig config = base_config(PolicyKind::kNative);
  exp::Run run(config);
  // Unadvanced run: the launch schedule is pending but the device starts
  // asleep and quiescent, so save succeeds at t=0...
  EXPECT_NO_THROW(run.save_snapshot());
}

}  // namespace
}  // namespace simty::exp
