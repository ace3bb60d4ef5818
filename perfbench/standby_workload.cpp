// standby: one device over a 24 h horizon on the heavy workload (18 apps,
// 5 imitated, system alarms on): the four paper policies, plus SIMTY with
// DRX paging (1.28 s cycle) and with DRX answered by a wake-up receiver.
// Set-up is under 1% of a run here, so this is where the event core, alarm
// batching and the hw/power/net models show. The paper-policy runs are
// alarm- and power-heavy; the DRX run fires several times more, cheaper
// events (sim/net heavy).
//
// An op is one run: exp::Run construction plus finish(). Each batch runs
// the six kinds on one fresh seed. Checks: every result is well formed, the
// first batch repeats bit for bit, and a save -> restore -> resume at a
// mid-horizon quiescent point equals the straight run, once per kind.

#include <optional>

#include "exp/run.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace simty;

enum class Paging { kNone, kDrx, kWur };

struct Kind {
  const char* key;  // model.energy_j.<key>
  exp::PolicyKind policy;
  Paging paging;
};

constexpr Kind kKinds[] = {
    {"native", exp::PolicyKind::kNative, Paging::kNone},
    {"simty", exp::PolicyKind::kSimty, Paging::kNone},
    {"exact", exp::PolicyKind::kExact, Paging::kNone},
    {"simty-dur", exp::PolicyKind::kSimtyDuration, Paging::kNone},
    {"simty-drx", exp::PolicyKind::kSimty, Paging::kDrx},
    {"simty-wur", exp::PolicyKind::kSimty, Paging::kWur},
};
constexpr std::size_t kKindCount = std::size(kKinds);

exp::ExperimentConfig run_config(const Kind& kind, std::uint64_t seed, Duration horizon) {
  exp::ExperimentConfig c;
  c.policy = kind.policy;
  c.workload = exp::WorkloadKind::kHeavy;
  c.duration = horizon;
  c.seed = seed;
  c.system_alarms = true;
  if (kind.paging != Paging::kNone) {
    c.drx.emplace();  // 1.28 s paging cycle, 10 ms on-duration
    if (kind.paging == Paging::kWur) {
      c.drx->wur = true;
      c.drx->wur_delay_budget = Duration::millis(1280);
    }
  }
  return c;
}

/// Empty when the result is well formed for its kind, else why not.
std::string check_result(const Kind& kind, const exp::RunResult& r, Duration horizon) {
  if (r.duration != horizon) return "wrong duration";
  if (!(r.energy.total().joules_f() > 0.0)) return "no energy";
  if (!(r.deliveries > 0.0)) return "no deliveries";
  const bool paging = kind.paging != Paging::kNone;
  if (paging != (r.pages_answered > 0.0)) return "pages answered do not match the scenario";
  if ((kind.paging == Paging::kWur) != (r.wur_triggers > 0.0)) {
    return "wake-up receiver triggers do not match the scenario";
  }
  return {};
}

/// Timing and count accumulators of the traced runs of one run class.
struct ClassTotals {
  LayerCounts counts;  // first batch only
  double finish_s = 0.0;
  double events = 0.0;
};

struct RunOutcome {
  exp::RunResult result;
  double wall_s = 0.0;
};

}  // namespace

void run_standby_workload(const Options& opt, Report& report) {
  const Duration horizon = opt.tiny ? Duration::hours(2) : Duration::hours(24);
  InputRng rng(opt.seed);
  LatencySamples latency;
  HostSpeed speed;
  speed.sample();

  // Set-up: one untimed warm-up run of each kind, on seeds the measured
  // batches never use.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    for (const Kind& kind : kKinds) exp::Run(run_config(kind, rng.next(), horizon)).finish();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  SpanLog spans(opt.trace);
  trace::Tracer tracer;
  PublishCounter publishes;
  ClassTotals paper;
  ClassTotals paging;
  double build_s = 0.0;
  double finish_s = 0.0;
  double runs_traced = 0.0;

  // One run of `kind`; traced runs carry the tracer, the publish counter and
  // spans around each public call.
  auto run_one = [&](const Kind& kind, std::uint64_t seed, std::uint64_t op, bool traced,
                     bool counting) {
    exp::ExperimentConfig cfg = run_config(kind, seed, horizon);
    if (traced) {
      cfg.tracer = &tracer;
      cfg.extra_power_listener = &publishes;
    }
    SpanLog quiet(false);
    SpanLog& log = traced ? spans : quiet;
    RunOutcome out;
    const auto t0 = Clock::now();
    std::uint64_t events = 0;
    double build = 0.0;
    double finish = 0.0;
    {
      const SpanLog::Scope run_span(log, "standby.run", op);
      std::optional<exp::Run> run;
      {
        const SpanLog::Scope s(log, "exp.build", op);
        run.emplace(cfg);
      }
      const auto t1 = Clock::now();
      {
        const SpanLog::Scope s(log, "exp.finish", op);
        out.result = run->finish();
        events = run->simulator().events_processed();
        run.reset();
      }
      const auto t2 = Clock::now();
      build = seconds_between(t0, t1);
      finish = seconds_between(t1, t2);
    }
    out.wall_s = seconds_between(t0, Clock::now());
    if (traced) {
      ClassTotals& cls = kind.paging == Paging::kNone ? paper : paging;
      cls.finish_s += finish;
      cls.events += static_cast<double>(events);
      build_s += build;
      finish_s += finish;
      runs_traced += 1;
      if (counting) cls.counts.add_run(tracer, events, publishes.count, out.result);
      tracer.clear();
      publishes.count = 0;
    }
    return out;
  };

  double measured_runs = 0.0;
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  std::uint64_t first_seed = 0;
  std::vector<exp::RunResult> first;
  bool first_failed = false;
  std::uint64_t op = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::uint64_t batch = 0; batch == 0 || Clock::now() < deadline; ++batch) {
    // The six kinds on one seed, plus SIMTY, the paper's policy, on a
    // second: an odd count puts the per-batch median mid-way through one
    // kind's runs rather than between two kinds.
    const std::uint64_t seed = rng.next();
    std::vector<std::pair<const Kind*, std::uint64_t>> plan;
    for (const Kind& kind : kKinds) plan.emplace_back(&kind, seed);
    plan.emplace_back(&kKinds[1], rng.next());
    bool ok = true;
    std::vector<exp::RunResult> results;
    double wall = 0.0;
    for (const auto& [kind, run_seed] : plan) {
      report.attempt();
      try {
        RunOutcome out = run_one(*kind, run_seed, op++, false, false);
        wall += out.wall_s;
        latency.add(out.wall_s * 1e3);
        const std::string bad = check_result(*kind, out.result, horizon);
        if (!bad.empty()) {
          ok = false;
          report.fail(1, std::string(kind->key) + ": " + bad);
        }
        results.push_back(std::move(out.result));
      } catch (const std::exception& e) {
        ok = false;
        report.fail(1, std::string(kind->key) + " threw: " + e.what());
      }
    }
    measured_runs += static_cast<double>(plan.size());
    untraced_wall += wall;
    if (opt.trace && ok) {
      for (std::size_t k = 0; k < plan.size(); ++k) {
        const Kind& kind = *plan[k].first;
        report.attempt();
        try {
          const RunOutcome out = run_one(kind, plan[k].second, op++, true, batch == 0);
          traced_wall += out.wall_s;
          if (result_bytes(out.result) != result_bytes(results[k])) {
            report.fail(1, std::string(kind.key) + ": traced run differs from untraced");
          }
        } catch (const std::exception& e) {
          report.fail(1, std::string(kind.key) + " traced run threw: " + e.what());
        }
      }
    }
    if (batch == 0) {
      first_seed = seed;
      first = std::move(results);
      first_failed = !ok;
    }
    speed.sample_if_due();
  }
  const double rss = peak_rss_mib();
  speed.sample();

  // Post-measure checks on the first batch's seed, once per kind: a repeat
  // run, and a save -> restore -> resume from mid-horizon.
  if (!first_failed) {
    for (std::size_t k = 0; k < kKindCount; ++k) {
      const std::string want = result_bytes(first[k]);
      const exp::ExperimentConfig cfg = run_config(kKinds[k], first_seed, horizon);
      try {
        if (result_bytes(exp::Run(cfg).finish()) != want) {
          report.fail(1, std::string(kKinds[k].key) + ": repeat run differs");
          continue;
        }
        exp::Run paused(cfg);
        paused.advance_to_quiescent(TimePoint::origin() + horizon / 2);
        const std::string snap = paused.save_snapshot();
        exp::Run resumed(cfg);
        resumed.restore_snapshot(snap);
        if (result_bytes(resumed.finish()) != want || result_bytes(paused.finish()) != want) {
          report.fail(1, std::string(kKinds[k].key) + ": save/restore/resume differs");
        }
      } catch (const std::exception& e) {
        report.fail(1, std::string(kKinds[k].key) + " check threw: " + e.what());
      }
    }
  }

  if (!opt.trace) {
    report_end_to_end(report, measured_runs, untraced_wall, latency, setup_s, rss, speed);
    return;
  }

  report.set("exp.build_us", build_s / runs_traced * 1e6);
  report.set("exp.finish_us", finish_s / runs_traced * 1e6);
  report.set("exp.build_share", build_s / (build_s + finish_s));
  report_sim(report, paper.counts, false, paper.finish_s, paper.events);
  report_alarm_hw(report, paper.counts);
  report_sim(report, paging.counts, true, paging.finish_s, paging.events);
  report_net(report, paging.counts);
  report.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
  if (!first_failed) {
    std::uint64_t digest = fnv1a64("");
    for (std::size_t k = 0; k < kKindCount; ++k) {
      report.set(std::string("model.energy_j.") + kKinds[k].key,
                 first[k].energy.total().joules_f());
      digest = fnv1a64(result_bytes(first[k]), digest);
    }
    report.set("model.simty_native_energy_ratio",
               first[1].energy.total().joules_f() / first[0].energy.total().joules_f());
    report.set("model.digest.standby", digest_value(digest));
  }
  const double top = spans.top_level_s();
  for (const auto& [layer, self] : spans.layer_self_s()) {
    report.set("self_frac." + layer, self / top);
  }
  spans.write(opt.trace_dir, "standby-seed" + std::to_string(opt.seed), host_json(opt));
}

}  // namespace perfbench
