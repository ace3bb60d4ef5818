// fleet: the default three-cohort population under SIMTY, through
// fleet::run_fleet. Per-device set-up (sampling, workload construction) is
// a large share of device time here while the simulation per device is
// short, so this is where sampling, set-up and thread-pool scaling show.
//
// An op is one device. Each batch is one fleet of kDevices devices with a
// fresh fleet seed: run_fleet at jobs=1 gives the throughput, and the same
// fleet run again device by device (the same 256-device shards, arenas and
// merge_pairwise tree as run_fleet's serial path) gives per-device latency
// and, in the traced run, the per-layer spans. The two must agree bit for
// bit, as must run_fleet at jobs=min(nproc, 4) and a repeat of the first
// batch.

#include <optional>

#include "apps/workload.hpp"
#include "common/arena.hpp"
#include "exp/run.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/report.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace simty;

constexpr std::uint64_t kShardDevices = 256;  // run_fleet's default partition

struct FleetSizes {
  std::uint64_t devices;
  std::uint64_t warmup_devices;
};

FleetSizes sizes(const Options& opt) {
  return opt.tiny ? FleetSizes{96, 16} : FleetSizes{2048, 1024};
}

struct FleetInput {
  std::vector<fleet::CohortSpec> cohorts;
  std::vector<std::uint64_t> counts;
};

fleet::FleetConfig fleet_config(const FleetInput& in, std::uint64_t devices,
                                std::uint64_t seed, int jobs) {
  fleet::FleetConfig c;
  c.cohorts = in.cohorts;
  c.devices = devices;
  c.policy = exp::PolicyKind::kSimty;
  c.seed = seed;
  c.jobs = jobs;
  c.shard_devices = kShardDevices;
  return c;
}

std::string csv_of(const fleet::FleetResult& r) { return fleet::fleet_csv({r}); }

/// What the traced device-by-device pass collects besides spans.
struct TracedState {
  trace::Tracer tracer;
  PublishCounter publishes;
  LayerCounts counts;     // first batch only: deterministic
  bool counting = false;
  double events = 0;      // every traced device, for ns/event
  std::uint64_t devices = 0;
};

/// Runs the fleet device by device through the public API, mirroring
/// run_fleet's serial path. `traced` adds spans, the run tracer and the
/// power-publish counter, plus a separate Workload::from_profiles probe
/// per device (apps.build) outside the device span.
fleet::FleetResult run_device_by_device(const FleetInput& in, std::uint64_t seed,
                                        std::uint64_t op_base, SpanLog& spans,
                                        LatencySamples* latency, TracedState* traced) {
  fleet::FleetResult result;
  result.policy_name = exp::to_string(exp::PolicyKind::kSimty);
  std::uint64_t op = op_base;
  for (std::size_t i = 0; i < in.cohorts.size(); ++i) {
    const fleet::CohortSpec& spec = in.cohorts[i];
    std::vector<fleet::CohortAggregate> shard_aggs;
    for (std::uint64_t b = 0; b < in.counts[i]; b += kShardDevices) {
      fleet::CohortAggregate agg(spec.name);
      common::Arena arena;
      for (std::uint64_t d = b; d < std::min(b + kShardDevices, in.counts[i]); ++d, ++op) {
        const auto t0 = Clock::now();
        std::optional<fleet::DeviceSample> sample;
        std::optional<exp::RunResult> r;
        std::uint64_t events = 0;
        {
          const SpanLog::Scope device_span(spans, "fleet.device", op);
          {
            const SpanLog::Scope s(spans, "fleet.sample", op);
            sample.emplace(fleet::sample_device(spec, seed, d));
          }
          arena.reset();
          exp::ExperimentConfig cfg = fleet::device_config(
              spec, *sample, exp::PolicyKind::kSimty, alarm::SimilarityConfig{});
          cfg.arena_opts.arena = &arena;
          if (traced != nullptr) {
            cfg.tracer = &traced->tracer;
            cfg.extra_power_listener = &traced->publishes;
          }
          std::optional<exp::Run> run;
          {
            const SpanLog::Scope s(spans, "exp.build", op);
            run.emplace(cfg);
          }
          {
            const SpanLog::Scope s(spans, "exp.finish", op);
            r.emplace(run->finish());
            events = run->simulator().events_processed();
            run.reset();
          }
          {
            const SpanLog::Scope s(spans, "fleet.aggregate", op);
            agg.add(fleet::device_metrics(*r));
          }
        }
        if (latency != nullptr) latency->add(seconds_between(t0, Clock::now()) * 1e3);
        if (traced == nullptr) continue;
        traced->events += static_cast<double>(events);
        ++traced->devices;
        if (traced->counting) {
          traced->counts.add_run(traced->tracer, events, traced->publishes.count, *r);
        }
        traced->tracer.clear();
        traced->publishes.count = 0;
        const SpanLog::Scope s(spans, "apps.build", op);
        apps::WorkloadConfig wc;
        wc.seed = sample->run_seed;
        wc.beta = sample->beta;
        const apps::Workload w = apps::Workload::from_profiles(sample->catalog, wc);
        static_cast<void>(w);
      }
      shard_aggs.push_back(std::move(agg));
    }
    const SpanLog::Scope s(spans, "fleet.merge", op);
    if (shard_aggs.empty()) shard_aggs.emplace_back(spec.name);
    result.cohorts.push_back(fleet::merge_pairwise(std::move(shard_aggs)));
  }
  const SpanLog::Scope s(spans, "fleet.merge", op);
  std::vector<fleet::CohortAggregate> all(result.cohorts);
  result.overall = fleet::merge_pairwise(std::move(all));
  result.overall.cohort = "ALL";
  result.devices = op - op_base;
  return result;
}

}  // namespace

void run_fleet_workload(const Options& opt, Report& report) {
  const FleetSizes size = sizes(opt);
  InputRng rng(opt.seed);
  LatencySamples latency;
  HostSpeed speed;
  speed.sample();

  // Set-up: input generation, cohort validation, one untimed warm-up fleet.
  std::vector<double> setup_s;
  FleetInput input;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    input.cohorts = fleet::default_cohorts();
    for (const fleet::CohortSpec& spec : input.cohorts) spec.validate();
    input.counts = fleet::apportion_devices(size.devices, input.cohorts);
    fleet::run_fleet(fleet_config(input, size.warmup_devices, rng.next(), 1));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  SpanLog spans(opt.trace);
  std::optional<TracedState> traced;
  if (opt.trace) traced.emplace();

  std::vector<double> serial_rate;  // devices/s of run_fleet at jobs=1, per batch
  double measured_s = 0.0;
  std::vector<double> par_rate;     // traced run: jobs=N, per batch
  std::uint64_t first_seed = 0;
  std::string first_csv;
  bool first_failed = false;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::uint64_t batch = 0; batch == 0 || Clock::now() < deadline; ++batch) {
    const std::uint64_t seed = rng.next();
    report.attempt(size.devices);
    bool ok = true;
    try {
      const auto t0 = Clock::now();
      const fleet::FleetResult ref = fleet::run_fleet(fleet_config(input, size.devices, seed, 1));
      const double wall = seconds_between(t0, Clock::now());
      serial_rate.push_back(static_cast<double>(size.devices) / wall);
      measured_s += wall;
      const std::string csv = csv_of(ref);
      if (batch == 0) {
        first_seed = seed;
        first_csv = csv;
      }
      if (opt.trace) {
        const auto t1 = Clock::now();
        const fleet::FleetResult par =
            fleet::run_fleet(fleet_config(input, size.devices, seed, opt.jobs()));
        par_rate.push_back(static_cast<double>(size.devices) / seconds_between(t1, Clock::now()));
        if (csv_of(par) != csv) {
          ok = false;
          report.fail(size.devices, "fleet csv differs between jobs=1 and jobs=N");
        }
        traced->counting = batch == 0;
      }
      const fleet::FleetResult dbd = run_device_by_device(
          input, seed, batch * size.devices, spans, &latency, opt.trace ? &*traced : nullptr);
      if (ok && csv_of(dbd) != csv) {
        ok = false;
        report.fail(size.devices, "device-by-device aggregates differ from run_fleet");
      }
    } catch (const std::exception& e) {
      ok = false;
      report.fail(size.devices, std::string("fleet batch threw: ") + e.what());
    }
    if (batch == 0) first_failed = !ok;
    speed.sample_if_due();
  }
  const double rss = peak_rss_mib();
  speed.sample();

  // Post-measure checks on the first batch: a repeat at jobs=1 and a run at
  // jobs=min(nproc, 4) must both reproduce its CSV.
  if (!first_failed) {
    for (const int jobs : {1, opt.jobs()}) {
      try {
        if (csv_of(fleet::run_fleet(fleet_config(input, size.devices, first_seed, jobs))) !=
            first_csv) {
          report.fail(size.devices, "fleet csv not reproduced at jobs=" + std::to_string(jobs));
          break;
        }
      } catch (const std::exception& e) {
        report.fail(size.devices, std::string("fleet check threw: ") + e.what());
        break;
      }
    }
  }

  if (!opt.trace) {
    report_end_to_end(report, static_cast<double>(serial_rate.size() * size.devices), measured_s,
                      latency, setup_s, rss, speed);
    return;
  }

  const auto totals = spans.totals();
  auto total_s = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const double n = static_cast<double>(traced->devices);
  report.set("fleet.sample_us", total_s("fleet.sample") / n * 1e6);
  report.set("fleet.aggregate_us",
             (total_s("fleet.aggregate") + total_s("fleet.merge")) / n * 1e6);
  report.set("apps.build_us", total_s("apps.build") / n * 1e6);
  report.set("exp.build_us", total_s("exp.build") / n * 1e6);
  report.set("exp.finish_us", total_s("exp.finish") / n * 1e6);
  report.set("exp.build_share", total_s("exp.build") / total_s("fleet.device"));
  const double serial = median(serial_rate);
  const double par = median(par_rate);
  report.set("fleet.devices_per_s_par", par);
  report.set("fleet.par_efficiency", par / (opt.jobs() * serial));
  report_sim(report, traced->counts, false, total_s("exp.finish"), traced->events);
  report_alarm_hw(report, traced->counts);
  report_net(report, traced->counts);
  const double traced_wall = total_s("fleet.device") + total_s("fleet.merge");
  report.set("trace.overhead_frac", traced_wall / measured_s - 1.0);
  report.set("model.digest.fleet", digest_value(fnv1a64(first_csv)));
  const double top = spans.top_level_s();
  for (const auto& [layer, self] : spans.layer_self_s()) {
    report.set("self_frac." + layer, self / top);
  }
  spans.write(opt.trace_dir, "fleet-seed" + std::to_string(opt.seed), host_json(opt));
}

}  // namespace perfbench
