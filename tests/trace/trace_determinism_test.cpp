// The trace determinism gate's in-tree core: the trace of a run must be a
// pure function of the config — identical whether the surrounding
// repetition batch ran serially or on the thread pool — and a perturbed
// config must produce a trace whose first divergent event diff_traces can
// name. CI repeats the same check end-to-end through simty_run --trace and
// tools/snapshot_diff.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.policy = PolicyKind::kSimty;
  c.workload = WorkloadKind::kLight;
  c.duration = Duration::seconds(1200);
  c.seed = 1;
  return c;
}

TEST(TraceDeterminism, SerialAndParallelRunsProduceIdenticalTraces) {
  trace::Tracer serial_t;
  ExperimentConfig serial_c = small_config();
  serial_c.tracer = &serial_t;
  run_repeated(serial_c, 2, /*jobs=*/1);

  trace::Tracer parallel_t;
  ExperimentConfig parallel_c = small_config();
  parallel_c.tracer = &parallel_t;
  run_repeated(parallel_c, 2, /*jobs=*/2);

  ASSERT_GT(serial_t.size(), 0u);
  EXPECT_EQ(serial_t.size(), parallel_t.size());
  // Every event identical, not just equal summaries: the CI job makes the
  // same check with cmp on the exported files.
  const trace::TraceDiff d = trace::diff_traces(serial_t, parallel_t);
  EXPECT_TRUE(d.equal) << d.summary;
  EXPECT_EQ(serial_t.chrome_json(), parallel_t.chrome_json());
}

TEST(TraceDeterminism, RepeatedIdenticalRunsProduceIdenticalTraces) {
  trace::Tracer first, second;
  ExperimentConfig c = small_config();
  c.tracer = &first;
  run_experiment(c);
  c.tracer = &second;
  run_experiment(c);
  EXPECT_EQ(first.chrome_json(), second.chrome_json());
}

TEST(TraceDeterminism, PerturbedSeedDivergesAndDiffPinpointsIt) {
  trace::Tracer base_t, other_t;
  ExperimentConfig base_c = small_config();
  base_c.tracer = &base_t;
  run_experiment(base_c);

  ExperimentConfig other_c = small_config();
  other_c.seed = 99;
  other_c.tracer = &other_t;
  run_experiment(other_c);

  const trace::TraceDiff d = trace::diff_traces(base_t, other_t);
  EXPECT_FALSE(d.equal);
  ASSERT_TRUE(d.first_divergence.has_value());
  // The run span carries the seed as its arg, so the two traces disagree
  // from the very first event — the diff names it rather than hand-waving.
  EXPECT_EQ(*d.first_divergence, 0u);
  EXPECT_NE(d.summary.find("run"), std::string::npos);
}

TEST(TraceDeterminism, TracerRidesTheBaseSeedOnlyInRepetitionBatches) {
  trace::Tracer repeated_t;
  ExperimentConfig c = small_config();
  c.tracer = &repeated_t;
  run_repeated(c, 3, /*jobs=*/1);

  trace::Tracer single_t;
  ExperimentConfig single = small_config();
  single.tracer = &single_t;
  run_experiment(single);

  // Three repetitions do not triple the trace: seeds 2 and 3 run untraced.
  EXPECT_EQ(repeated_t.chrome_json(), single_t.chrome_json());
}

}  // namespace
}  // namespace simty::exp
