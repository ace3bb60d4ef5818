#include "exp/parallel_runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <future>
#include <thread>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"

namespace simty::exp {

namespace {

/// Runs one config on `arena` storage when the caller supplied none of its
/// own. Reset-then-run: every run starts from offset zero, so repetition
/// i + 1 reuses the blocks repetition i grew — the sweep's steady state
/// allocates nothing per run.
RunResult run_on_arena(ExperimentConfig config, common::Arena& arena) {
  if (config.arena_opts.arena == nullptr) {
    arena.reset();
    config.arena_opts.arena = &arena;
  }
  return run_experiment(std::move(config));
}

}  // namespace

ParallelRunner::ParallelRunner(int jobs) : jobs_(std::max(jobs, 1)) {}

int ParallelRunner::default_jobs() {
  // Worker count only changes scheduling, never results: the reduction is
  // submission-ordered, and serial-vs-parallel equality is gated in CI.
  if (const char* env = std::getenv("SIMTY_JOBS")) {  // simty-lint: allow(taint)
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<RunResult> ParallelRunner::run(
    const std::vector<ExperimentConfig>& configs) const {
  std::vector<RunResult> results;
  results.reserve(configs.size());
  std::size_t fanout =
      std::min(static_cast<std::size_t>(jobs_), configs.size());
  // A caller-supplied arena is single-threaded state shared by every run
  // that carries it: those sweeps must not fan out.
  for (const ExperimentConfig& c : configs) {
    if (c.arena_opts.arena != nullptr) {
      fanout = 1;
      break;
    }
  }
  if (fanout <= 1) {
    common::Arena arena;
    for (const ExperimentConfig& c : configs) results.push_back(run_on_arena(c, arena));
    return results;
  }

  ThreadPool pool(fanout);
  std::vector<std::future<RunResult>> futures;
  futures.reserve(configs.size());
  for (const ExperimentConfig& c : configs) {
    futures.push_back(pool.submit([config = c] {
      // One arena per worker thread, reused across every run the worker
      // picks up (arena presence never changes a result bit, so the
      // serial-vs-parallel identity contract is untouched).
      thread_local common::Arena worker_arena;
      return run_on_arena(config, worker_arena);
    }));
  }
  // get() in submission order: the reduction sees results in exactly the
  // order the serial loop would have produced them.
  for (std::future<RunResult>& f : futures) results.push_back(f.get());
  return results;
}

std::vector<RunResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                 int jobs) {
  return ParallelRunner(jobs).run(configs);
}

}  // namespace simty::exp
