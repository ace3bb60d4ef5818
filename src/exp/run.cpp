#include "exp/run.hpp"

#include <utility>

#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/fixed_interval_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/check.hpp"
#include "hw/battery.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::exp {

namespace {

std::unique_ptr<alarm::AlignmentPolicy> make_policy(const ExperimentConfig& config) {
  switch (config.policy) {
    case PolicyKind::kNative: return std::make_unique<alarm::NativePolicy>();
    case PolicyKind::kSimty:
      return std::make_unique<alarm::SimtyPolicy>(config.similarity);
    case PolicyKind::kExact: return std::make_unique<alarm::ExactPolicy>();
    case PolicyKind::kSimtyDuration:
      return std::make_unique<alarm::DurationSimtyPolicy>(config.similarity);
    case PolicyKind::kFixedInterval:
      return std::make_unique<alarm::FixedIntervalPolicy>(config.fixed_interval);
  }
  SIMTY_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

apps::Workload make_workload(const ExperimentConfig& config) {
  apps::WorkloadConfig wc;
  wc.seed = config.seed;
  wc.beta = config.beta;
  if (!config.custom_profiles.empty()) {
    return apps::Workload::from_profiles(config.custom_profiles, wc);
  }
  switch (config.workload) {
    case WorkloadKind::kLight: return apps::Workload::light(wc);
    case WorkloadKind::kHeavy: return apps::Workload::heavy(wc);
    case WorkloadKind::kSynthetic:
      return apps::Workload::synthetic(config.synthetic_apps, wc);
  }
  SIMTY_CHECK_MSG(false, "unknown workload kind");
  return apps::Workload::light(wc);
}

int begin_run_span(std::uint64_t seed) {
  SIMTY_TRACE_SPAN_BEGIN(TimePoint::origin(), trace::TraceCategory::kExp, "run",
                         static_cast<std::int64_t>(seed));
  return 0;
}

int wire_listeners(hw::PowerBus& bus, power::EnergyAccountant& accountant,
                   const ExperimentConfig& config) {
  bus.add_listener(&accountant);
  if (config.extra_power_listener != nullptr) {
    bus.add_listener(config.extra_power_listener);
  }
  return 0;
}

// Section schema versions; bump a component's entry when its field list
// changes so old snapshots fail loudly instead of misparsing.
// v2: hw::Component gained kWur (accountant per-component array grew).
// v3: the alarms section no longer carries per-queue index counters.
// v4: the sim section stores heap nodes and slots, with no staged batch.
// v5: the tracer section no longer carries a ring drop count.
constexpr std::uint32_t kSectionVersion = 5;

}  // namespace

Run::Run(ExperimentConfig config)
    : config_(std::move(config)),
      trace_scope_(config_.tracer),
      run_span_(begin_run_span(config_.seed)),
      sim_(config_.arena_opts.arena),
      listeners_wired_(wire_listeners(bus_, accountant_, config_)),
      device_(sim_, config_.power_model, bus_),
      rtc_(sim_, device_),
      wakelocks_(sim_, config_.power_model, bus_),
      manager_(sim_, device_, rtc_, wakelocks_, make_policy(config_)),
      workload_(make_workload(config_)),
      doze_(sim_, manager_, device_, alarm::DozeController::Config{}),
      horizon_(TimePoint::origin() + config_.duration) {
  static_cast<void>(run_span_);
  static_cast<void>(listeners_wired_);
  manager_.add_delivery_observer(delays_.observer());
  manager_.add_delivery_observer(wakeup_accounting_.observer());
  manager_.add_delivery_observer(audit_.observer());
  const Duration wake_latency = config_.power_model.wake_latency;
  manager_.add_delivery_observer([this, wake_latency](const alarm::DeliveryRecord& r) {
    if (r.mode == alarm::RepeatMode::kOneShot) ++one_shots_;
    // Perceptible deliveries must land inside the window; allow the wake
    // latency slip the paper itself observed.
    if (r.was_perceptible && r.delivered > r.window.end() + wake_latency) {
      ++perceptible_misses_;
    }
  });
  if (config_.extra_delivery_observer) {
    manager_.add_delivery_observer(config_.extra_delivery_observer);
  }
  if (config_.extra_session_observer) {
    manager_.add_session_observer(config_.extra_session_observer);
  }
  if (config_.capture_delivery_log) {
    manager_.add_delivery_observer(capture_log_.observer());
  }

  workload_.deploy(sim_, manager_);
  if (config_.doze) doze_.enable();

  if (config_.system_alarms) {
    apps::SystemAlarmConfig sys_cfg;
    sys_cfg.beta = config_.beta;
    system_alarms_ = std::make_unique<apps::SystemAlarmSource>(
        sim_, manager_, sys_cfg, Rng(config_.seed, 0x515));
    system_alarms_->start(horizon_);
  }

  if (config_.drx) {
    if (config_.drx->wur) {
      wur_ = std::make_unique<hw::WakeupReceiver>(sim_, config_.wur, bus_);
    }
    cellular_ = std::make_unique<net::CellularStandby>(sim_, manager_, bus_);
    cellular_->deploy_paging(device_, bus_, wur_.get(), *config_.drx,
                             Rng(config_.seed, 0xD2C));
  }

  if (config_.beta_switch) {
    // β is captured by the closure and nothing else: the serialized event
    // is identical across sweep points, only the rebind differs.
    const double beta = config_.beta_switch->beta;
    beta_switch_event_ = sim_.schedule_at(
        TimePoint::origin() + config_.beta_switch->at,
        [this, beta] {
          beta_switch_event_.reset();
          manager_.apply_grace_factor(beta);
        },
        sim::EventPriority::kFramework, "beta-switch");
  }
}

TimePoint Run::advance_to_quiescent(TimePoint at) {
  SIMTY_CHECK_MSG(!finished_, "Run::advance_to_quiescent after finish()");
  SIMTY_CHECK_MSG(at <= horizon_, "Run::advance_to_quiescent beyond the horizon");
  sim_.run_until(at);
  while (!device_.quiescent()) {
    SIMTY_CHECK_MSG(sim_.step(),
                    "Run::advance_to_quiescent: queue drained while awake");
    SIMTY_CHECK_MSG(sim_.now() <= horizon_,
                    "Run::advance_to_quiescent: no quiescent point before horizon");
  }
  return sim_.now();
}

alarm::AlarmManager::HandlerResolver Run::handler_resolver() {
  return [this](alarm::AppId app, const std::string& tag) -> alarm::DeliveryHandler {
    if (system_alarms_ && app == apps::SystemAlarmSource::kSystemApp) {
      return system_alarms_->handler_for(tag);
    }
    return workload_.handler_for(manager_, app, tag);
  };
}

std::string Run::save_snapshot() const {
  SIMTY_CHECK_MSG(!finished_, "Run::save_snapshot after finish()");
  SIMTY_CHECK_MSG(device_.quiescent(),
                  "Run::save_snapshot requires a quiescent device "
                  "(advance_to_quiescent first)");
  snapshot::Writer w;
  w.begin_section("sim", kSectionVersion);
  sim_.save(w);
  w.end_section();
  w.begin_section("device", kSectionVersion);
  device_.save(w);
  w.end_section();
  w.begin_section("wakelocks", kSectionVersion);
  wakelocks_.save(w);
  w.end_section();
  w.begin_section("alarms", kSectionVersion);
  manager_.save(w);
  w.end_section();
  w.begin_section("rtc", kSectionVersion);
  rtc_.save(w);
  w.end_section();
  w.begin_section("doze", kSectionVersion);
  doze_.save(w);
  w.end_section();
  w.begin_section("workload", kSectionVersion);
  workload_.save(w);
  w.end_section();
  if (system_alarms_) {
    w.begin_section("system-alarms", kSectionVersion);
    system_alarms_->save(w);
    w.end_section();
  }
  if (cellular_) {
    w.begin_section("cellular", kSectionVersion);
    cellular_->save(w);
    w.end_section();
  }
  if (wur_) {
    w.begin_section("wur", kSectionVersion);
    wur_->save(w);
    w.end_section();
  }
  w.begin_section("accountant", kSectionVersion);
  accountant_.save(w);
  w.end_section();
  w.begin_section("metrics", kSectionVersion);
  delays_.save(w);
  audit_.save(w);
  wakeup_accounting_.save(w);
  w.u64(perceptible_misses_);
  w.u64(one_shots_);
  w.end_section();
  if (config_.tracer != nullptr) {
    w.begin_section(trace::Tracer::kSection, kSectionVersion);
    config_.tracer->save(w);
    w.end_section();
  }
  if (config_.capture_delivery_log) {
    w.begin_section("delivery-log", kSectionVersion);
    capture_log_.save(w);
    w.end_section();
  }
  w.begin_section("run", kSectionVersion);
  w.i64(horizon_.us());
  w.boolean(beta_switch_event_.has_value());
  if (beta_switch_event_) w.u64(beta_switch_event_->value);
  w.end_section();
  return w.finish();
}

void Run::restore_snapshot(const std::string& bytes) {
  SIMTY_CHECK_MSG(!finished_, "Run::restore_snapshot after finish()");
  const snapshot::Reader r(bytes);
  {
    snapshot::SectionReader s = r.section("sim", kSectionVersion);
    sim_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("device", kSectionVersion);
    device_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("wakelocks", kSectionVersion);
    wakelocks_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("alarms", kSectionVersion);
    manager_.restore(s, handler_resolver());
  }
  {
    snapshot::SectionReader s = r.section("rtc", kSectionVersion);
    rtc_.restore(s, manager_.rtc_handler());
  }
  {
    snapshot::SectionReader s = r.section("doze", kSectionVersion);
    doze_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("workload", kSectionVersion);
    workload_.restore(s, sim_, manager_);
  }
  SIMTY_CHECK_MSG(r.has_section("system-alarms") == (system_alarms_ != nullptr),
                  "Run::restore_snapshot: system-alarms config mismatch");
  if (system_alarms_) {
    snapshot::SectionReader s = r.section("system-alarms", kSectionVersion);
    system_alarms_->restore(s);
  }
  SIMTY_CHECK_MSG(r.has_section("cellular") == (cellular_ != nullptr),
                  "Run::restore_snapshot: DRX/paging config mismatch");
  if (cellular_) {
    snapshot::SectionReader s = r.section("cellular", kSectionVersion);
    cellular_->restore(s);
  }
  SIMTY_CHECK_MSG(r.has_section("wur") == (wur_ != nullptr),
                  "Run::restore_snapshot: wake-up receiver config mismatch");
  if (wur_) {
    snapshot::SectionReader s = r.section("wur", kSectionVersion);
    wur_->restore(s);
  }
  {
    snapshot::SectionReader s = r.section("accountant", kSectionVersion);
    // Device::restore re-published the asleep rail above; this overwrite is
    // what makes the republish invisible in the accounting.
    accountant_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("metrics", kSectionVersion);
    delays_.restore(s);
    audit_.restore(s);
    wakeup_accounting_.restore(s);
    perceptible_misses_ = s.u64();
    one_shots_ = s.u64();
  }
  if (config_.tracer != nullptr) {
    SIMTY_CHECK_MSG(r.has_section(trace::Tracer::kSection),
                    "Run::restore_snapshot: snapshot carries no tracer section");
    snapshot::SectionReader s = r.section(trace::Tracer::kSection, kSectionVersion);
    config_.tracer->restore(s);
  }
  if (config_.capture_delivery_log) {
    SIMTY_CHECK_MSG(r.has_section("delivery-log"),
                    "Run::restore_snapshot: snapshot carries no delivery log");
    snapshot::SectionReader s = r.section("delivery-log", kSectionVersion);
    capture_log_.restore(s);
  }
  {
    snapshot::SectionReader s = r.section("run", kSectionVersion);
    const TimePoint horizon = TimePoint::from_us(s.i64());
    SIMTY_CHECK_MSG(horizon == horizon_, "Run::restore_snapshot: horizon mismatch");
    beta_switch_event_.reset();  // the ctor's instance died with the queue
    if (s.boolean()) {
      SIMTY_CHECK_MSG(config_.beta_switch.has_value(),
                      "Run::restore_snapshot: snapshot has a pending beta "
                      "switch but the config has none");
      beta_switch_event_ = sim::EventId{s.u64()};
      const double beta = config_.beta_switch->beta;
      sim_.rebind(*beta_switch_event_, [this, beta] {
        beta_switch_event_.reset();
        manager_.apply_grace_factor(beta);
      });
    }
  }
  SIMTY_CHECK_MSG(sim_.fully_bound(),
                  "Run::restore_snapshot: restored events left unbound");
}

RunResult Run::finish() {
  SIMTY_CHECK_MSG(!finished_, "Run::finish called twice");
  finished_ = true;
  sim_.run_until(horizon_);
  device_.finalize(horizon_);
  wakelocks_.finalize(horizon_);
  if (cellular_) cellular_->finalize(horizon_);
  if (wur_) wur_->finalize(horizon_);
  accountant_.finalize(horizon_);
  SIMTY_TRACE_SPAN_END(horizon_, trace::TraceCategory::kExp, "run",
                       static_cast<std::int64_t>(config_.seed));

  RunResult r;
  r.policy_name = manager_.policy().name();
  r.duration = config_.duration;
  r.energy = accountant_.breakdown();
  r.average_power_mw = accountant_.average_power().mw();
  const hw::Battery battery = hw::Battery::nexus5();
  r.projected_standby_hours =
      battery.projected_standby(accountant_.average_power()).seconds_f() / 3600.0;
  r.delay_perceptible = delays_.perceptible().average();
  r.delay_imperceptible = delays_.imperceptible().average();
  if (!delays_.imperceptible_distribution().empty()) {
    r.delay_imperceptible_p95 = delays_.imperceptible_distribution().quantile(0.95);
  }
  for (const metrics::BreakdownRow& row : wakeup_accounting_.rows(device_, wakelocks_)) {
    r.wakeups.push_back(RunResult::HwCounts{row.hardware,
                                            static_cast<double>(row.actual),
                                            static_cast<double>(row.expected)});
  }
  r.deliveries = static_cast<double>(manager_.stats().deliveries);
  r.batches_delivered = static_cast<double>(manager_.stats().batches_delivered);
  r.one_shots = static_cast<double>(one_shots_);
  r.awake_seconds = device_.total_awake_time().seconds_f();
  r.asleep_seconds = device_.total_asleep_time().seconds_f();
  r.worst_gap_ratio = audit_.worst_gap_ratio();
  r.gap_violations = audit_.check_bounds(config_.beta).size();
  r.perceptible_window_misses = perceptible_misses_;
  if (cellular_ && cellular_->pager() != nullptr) {
    const net::DrxPager& pager = *cellular_->pager();
    r.pages_answered = static_cast<double>(pager.pages_answered());
    if (!pager.page_delays().empty()) {
      r.page_delay_avg_s = pager.page_delays().mean();
      r.page_delay_p95_s = pager.page_delays().quantile(0.95);
    }
    r.drx_listen_seconds = pager.drx_listen_time().seconds_f();
  }
  if (wur_) {
    r.wur_listen_seconds = wur_->listen_time().seconds_f();
    r.wur_triggers = static_cast<double>(wur_->triggers());
  }
  return r;
}

RunResult run_experiment(ExperimentConfig config) {
  Run run(std::move(config));
  return run.finish();
}

}  // namespace simty::exp
