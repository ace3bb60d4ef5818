#include "fleet/fleet_runner.hpp"

#include <algorithm>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <utility>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::fleet {

exp::ExperimentConfig device_config(const CohortSpec& spec,
                                    DeviceSample sample,
                                    exp::PolicyKind policy,
                                    const alarm::SimilarityConfig& similarity) {
  exp::ExperimentConfig c;
  c.policy = policy;
  c.similarity = similarity;
  c.custom_profiles = std::move(sample.catalog);
  c.beta = sample.beta;
  c.duration = spec.standby;
  c.seed = sample.run_seed;
  c.system_alarms = spec.system_alarms;
  c.power_model = sample.power_model;
  return c;
}

namespace {

/// A contiguous device-major slice of one cohort.
struct Shard {
  std::size_t index = 0;  // ordinal in submission order (checkpoint file name)
  std::size_t cohort = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

constexpr std::uint32_t kShardCkptVersion = 1;

std::string shard_ckpt_path(const FleetConfig& config, const Shard& shard) {
  return config.checkpoint_dir + "/shard_" + std::to_string(shard.index) +
         ".ckpt";
}

/// Writes the shard's resumable state: identity (index, cohort, range),
/// the next device to run, and the exact aggregate so far. Atomic rename
/// keeps a kill mid-write from leaving a torn checkpoint behind.
void write_shard_ckpt(const std::string& path, const CohortSpec& spec,
                      const Shard& shard, std::uint64_t next_device,
                      const CohortAggregate& agg) {
  snapshot::Writer w;
  w.begin_section("fleet-shard", kShardCkptVersion);
  w.u64(shard.index);
  w.str(spec.name);
  w.u64(shard.begin);
  w.u64(shard.end);
  w.u64(next_device);
  agg.save(w);
  w.end_section();
  snapshot::write_file_atomic(path, w.finish());
}

/// Loads a checkpoint and verifies it belongs to this shard of this fleet
/// (a stale directory from a different partition must fail loudly, not
/// silently skew aggregates). Returns the device index to resume at.
std::uint64_t read_shard_ckpt(const std::string& path, const CohortSpec& spec,
                              const Shard& shard, CohortAggregate& agg) {
  const snapshot::Reader reader(snapshot::read_file(path));
  snapshot::SectionReader s = reader.section("fleet-shard", kShardCkptVersion);
  SIMTY_CHECK_MSG(s.u64() == shard.index, "shard checkpoint: index mismatch");
  SIMTY_CHECK_MSG(s.str() == spec.name, "shard checkpoint: cohort mismatch");
  SIMTY_CHECK_MSG(s.u64() == shard.begin, "shard checkpoint: begin mismatch");
  SIMTY_CHECK_MSG(s.u64() == shard.end, "shard checkpoint: end mismatch");
  const std::uint64_t next_device = s.u64();
  SIMTY_CHECK_MSG(next_device >= shard.begin && next_device <= shard.end,
                  "shard checkpoint: resume point outside shard");
  agg.restore(s);
  SIMTY_CHECK_MSG(agg.devices == next_device - shard.begin,
                  "shard checkpoint: aggregate count disagrees with cursor");
  return next_device;
}

CohortAggregate run_shard(const CohortSpec& spec, const FleetConfig& config,
                          const Shard& shard) {
  CohortAggregate agg(spec.name);
  std::uint64_t resume_at = shard.begin;
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::string ckpt_path =
      checkpointing ? shard_ckpt_path(config, shard) : std::string();
  if (checkpointing && std::filesystem::exists(ckpt_path)) {
    resume_at = read_shard_ckpt(ckpt_path, spec, shard, agg);
  }
  // One arena per shard: each device run carves its event-queue slabs from
  // it, and the reset between devices rewinds the same blocks instead of
  // hitting the allocator — after the first device, the shard loop's run
  // storage is allocation-free (see the alloc-gate test). Arena presence
  // never changes a result bit.
  common::Arena arena;
  std::uint64_t processed = 0;  // devices run in THIS invocation
  for (std::uint64_t d = resume_at; d < shard.end; ++d) {
    if (config.fault_shard == static_cast<std::int64_t>(shard.index) &&
        processed == config.fault_after_devices) {
      throw std::runtime_error("fleet: injected fault in shard " +
                               std::to_string(shard.index));
    }
    arena.reset();
    exp::ExperimentConfig device_cfg = device_config(
        spec, sample_device(spec, config.seed, d), config.policy, config.similarity);
    device_cfg.arena_opts.arena = &arena;
    agg.add(device_metrics(exp::run_experiment(std::move(device_cfg))));
    ++processed;
    if (checkpointing && config.checkpoint_every > 0 &&
        processed % config.checkpoint_every == 0) {
      write_shard_ckpt(ckpt_path, spec, shard, d + 1, agg);
    }
  }
  // Final checkpoint (cursor == end): a restart after this shard finished
  // restores the complete aggregate instead of recomputing the shard.
  if (checkpointing) write_shard_ckpt(ckpt_path, spec, shard, shard.end, agg);
  return agg;
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  SIMTY_CHECK_MSG(config.devices > 0, "fleet needs at least one device");
  SIMTY_CHECK_MSG(config.shard_devices > 0, "fleet shard size must be positive");
  const std::vector<CohortSpec> cohorts =
      config.cohorts.empty() ? default_cohorts() : config.cohorts;
  for (const CohortSpec& spec : cohorts) spec.validate();
  const std::vector<std::uint64_t> counts =
      apportion_devices(config.devices, cohorts);

  std::vector<Shard> shards;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    for (std::uint64_t b = 0; b < counts[i]; b += config.shard_devices) {
      shards.push_back(Shard{shards.size(), i, b,
                             std::min(b + config.shard_devices, counts[i])});
    }
  }
  if (!config.checkpoint_dir.empty()) {
    std::filesystem::create_directories(config.checkpoint_dir);
  }

  // Fleet-level spans only, on the calling thread: device runs install a
  // null tracer (device_config leaves tracer unset), so the fleet trace is
  // identical whether the shards ran serially or on workers.
  const trace::TraceScope trace_scope(config.tracer);
  SIMTY_TRACE_SPAN_BEGIN(TimePoint::origin(), trace::TraceCategory::kExp,
                         "fleet", static_cast<std::int64_t>(config.devices));

  std::vector<CohortAggregate> shard_aggs;
  shard_aggs.reserve(shards.size());
  if (config.jobs > 1 && shards.size() > 1) {
    const auto workers = std::min<std::size_t>(
        static_cast<std::size_t>(config.jobs), shards.size());
    ThreadPool pool(workers);
    std::vector<std::future<CohortAggregate>> futures;
    futures.reserve(shards.size());
    for (const Shard& shard : shards) {
      const CohortSpec& spec = cohorts[shard.cohort];
      futures.push_back(pool.submit(
          [&spec, &config, shard] { return run_shard(spec, config, shard); }));
    }
    // Submission-order collection: get() rethrows the first failure in
    // submission order; the pool destructor drains the rest.
    for (std::future<CohortAggregate>& f : futures) shard_aggs.push_back(f.get());
  } else {
    for (const Shard& shard : shards) {
      shard_aggs.push_back(run_shard(cohorts[shard.cohort], config, shard));
    }
  }

  FleetResult result;
  result.policy_name = exp::to_string(config.policy);
  result.devices = config.devices;
  // Shards were emitted cohort-major, so each cohort's shards are one
  // contiguous slice of shard_aggs.
  std::size_t pos = 0;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    std::vector<CohortAggregate> mine;
    while (pos < shards.size() && shards[pos].cohort == i) {
      mine.push_back(std::move(shard_aggs[pos]));
      ++pos;
    }
    if (mine.empty()) mine.emplace_back(cohorts[i].name);  // zero-device cohort
    SIMTY_TRACE_INSTANT(TimePoint::origin(), trace::TraceCategory::kExp,
                        "fleet-cohort-merge",
                        static_cast<std::int64_t>(mine.size()));
    result.cohorts.push_back(merge_pairwise(std::move(mine)));
  }
  std::vector<CohortAggregate> all(result.cohorts);
  result.overall = merge_pairwise(std::move(all));
  result.overall.cohort = "ALL";
  SIMTY_TRACE_SPAN_END(TimePoint::origin(), trace::TraceCategory::kExp, "fleet",
                       static_cast<std::int64_t>(config.devices));
  return result;
}

}  // namespace simty::fleet
