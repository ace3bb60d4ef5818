#include "serve/serve_core.hpp"

#include <utility>

#include "common/check.hpp"
#include "exp/run.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::serve {

namespace {

exp::ExperimentConfig to_config(const Request& req) {
  exp::ExperimentConfig c;
  c.policy = req.policy;
  c.workload = req.workload;
  c.duration = req.duration;
  c.seed = req.seed;
  c.doze = req.doze;
  c.system_alarms = req.system_alarms;
  c.beta_switch = req.beta_switch;
  return c;
}

Response to_response(const exp::RunResult& r) {
  Response resp;
  resp.policy_name = r.policy_name;
  resp.total_j = r.energy.total().joules_f();
  resp.awake_total_j = r.energy.awake_total().joules_f();
  resp.average_power_mw = r.average_power_mw;
  resp.projected_standby_hours = r.projected_standby_hours;
  resp.delay_perceptible = r.delay_perceptible;
  resp.delay_imperceptible = r.delay_imperceptible;
  resp.delay_imperceptible_p95 = r.delay_imperceptible_p95;
  resp.deliveries = r.deliveries;
  resp.batches_delivered = r.batches_delivered;
  resp.one_shots = r.one_shots;
  resp.awake_seconds = r.awake_seconds;
  resp.asleep_seconds = r.asleep_seconds;
  resp.worst_gap_ratio = r.worst_gap_ratio;
  resp.gap_violations = r.gap_violations;
  resp.perceptible_window_misses = r.perceptible_window_misses;
  return resp;
}

}  // namespace

std::string encode_request(const Request& req) {
  snapshot::Writer w;
  w.begin_section("simty-request", kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.policy));
  w.u8(static_cast<std::uint8_t>(req.workload));
  w.i64(req.duration.us());
  w.u64(req.seed);
  w.boolean(req.doze);
  w.boolean(req.system_alarms);
  w.boolean(req.beta_switch.has_value());
  w.i64(req.beta_switch ? req.beta_switch->at.us() : 0);
  w.f64(req.beta_switch ? req.beta_switch->beta : 0.0);
  w.end_section();
  return w.finish();
}

Request decode_request(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section("simty-request", kProtocolVersion);
  Request req;
  const std::uint8_t policy = s.u8();
  SIMTY_CHECK_MSG(
      policy <= static_cast<std::uint8_t>(exp::PolicyKind::kSimtyDuration),
      "serve: unknown policy kind");
  req.policy = static_cast<exp::PolicyKind>(policy);
  const std::uint8_t workload = s.u8();
  SIMTY_CHECK_MSG(
      workload <= static_cast<std::uint8_t>(exp::WorkloadKind::kSynthetic),
      "serve: unknown workload kind");
  req.workload = static_cast<exp::WorkloadKind>(workload);
  const std::int64_t duration_us = s.i64();
  SIMTY_CHECK_MSG(duration_us > 0, "serve: duration must be positive");
  req.duration = Duration::micros(duration_us);
  req.seed = s.u64();
  req.doze = s.boolean();
  req.system_alarms = s.boolean();
  const bool has_switch = s.boolean();
  const std::int64_t at_us = s.i64();
  const double beta = s.f64();
  if (has_switch) {
    SIMTY_CHECK_MSG(at_us >= 0 && at_us <= duration_us,
                    "serve: beta switch outside the run");
    SIMTY_CHECK_MSG(apps::valid_beta(beta), "serve: beta must be in [0, 1)");
    req.beta_switch =
        exp::ExperimentConfig::BetaSwitch{Duration::micros(at_us), beta};
  }
  SIMTY_CHECK_MSG(s.at_end(), "serve: trailing bytes in request");
  return req;
}

std::string encode_response(const Response& resp) {
  snapshot::Writer w;
  w.begin_section("simty-response", kProtocolVersion);
  w.boolean(resp.cached);
  w.boolean(resp.warm_started);
  w.str(resp.policy_name);
  w.f64(resp.total_j);
  w.f64(resp.awake_total_j);
  w.f64(resp.average_power_mw);
  w.f64(resp.projected_standby_hours);
  w.f64(resp.delay_perceptible);
  w.f64(resp.delay_imperceptible);
  w.f64(resp.delay_imperceptible_p95);
  w.f64(resp.deliveries);
  w.f64(resp.batches_delivered);
  w.f64(resp.one_shots);
  w.f64(resp.awake_seconds);
  w.f64(resp.asleep_seconds);
  w.f64(resp.worst_gap_ratio);
  w.u64(resp.gap_violations);
  w.u64(resp.perceptible_window_misses);
  w.end_section();
  return w.finish();
}

Response decode_response(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s =
      reader.section("simty-response", kProtocolVersion);
  Response resp;
  resp.cached = s.boolean();
  resp.warm_started = s.boolean();
  resp.policy_name = s.str();
  resp.total_j = s.f64();
  resp.awake_total_j = s.f64();
  resp.average_power_mw = s.f64();
  resp.projected_standby_hours = s.f64();
  resp.delay_perceptible = s.f64();
  resp.delay_imperceptible = s.f64();
  resp.delay_imperceptible_p95 = s.f64();
  resp.deliveries = s.f64();
  resp.batches_delivered = s.f64();
  resp.one_shots = s.f64();
  resp.awake_seconds = s.f64();
  resp.asleep_seconds = s.f64();
  resp.worst_gap_ratio = s.f64();
  resp.gap_violations = s.u64();
  resp.perceptible_window_misses = s.u64();
  SIMTY_CHECK_MSG(s.at_end(), "serve: trailing bytes in response");
  return resp;
}

std::string encode_stats_request() {
  snapshot::Writer w;
  w.begin_section("simty-stats", kProtocolVersion);
  w.end_section();
  return w.finish();
}

std::string encode_stats(const ServeStats& stats) {
  snapshot::Writer w;
  w.begin_section("simty-stats", kProtocolVersion);
  w.u64(stats.requests);
  w.u64(stats.result_hits);
  w.u64(stats.result_misses);
  w.u64(stats.prefix_hits);
  w.u64(stats.prefix_misses);
  w.u64(stats.snapshots_stored);
  w.u64(stats.snapshots_evicted);
  w.end_section();
  return w.finish();
}

ServeStats decode_stats(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section("simty-stats", kProtocolVersion);
  ServeStats stats;
  stats.requests = s.u64();
  stats.result_hits = s.u64();
  stats.result_misses = s.u64();
  stats.prefix_hits = s.u64();
  stats.prefix_misses = s.u64();
  stats.snapshots_stored = s.u64();
  stats.snapshots_evicted = s.u64();
  SIMTY_CHECK_MSG(s.at_end(), "serve: trailing bytes in stats");
  return stats;
}

std::string prefix_key(const Request& req) {
  Request canonical = req;
  if (canonical.beta_switch) canonical.beta_switch->beta = 0.0;
  return encode_request(canonical);
}

ServeCore::ServeCore(std::size_t max_snapshots)
    : max_snapshots_(max_snapshots) {
  SIMTY_CHECK_MSG(max_snapshots_ > 0, "serve: snapshot store needs capacity");
}

const std::string* ServeCore::store_lookup(const std::string& key) {
  const auto it = snapshots_.find(key);
  if (it == snapshots_.end()) return nullptr;
  recency_.splice(recency_.begin(), recency_, it->second.recency);
  return &it->second.bytes;
}

void ServeCore::store_insert(std::string key, std::string bytes) {
  const auto [it, inserted] =
      snapshots_.try_emplace(std::move(key), StoredSnapshot{std::move(bytes), {}});
  if (!inserted) return;  // racing sweep points: keep first
  recency_.push_front(&it->first);
  it->second.recency = recency_.begin();
  ++stats_.snapshots_stored;
  while (snapshots_.size() > max_snapshots_) {
    snapshots_.erase(*recency_.back());
    recency_.pop_back();
    ++stats_.snapshots_evicted;
  }
}

Response ServeCore::run_request(const Request& req) {
  const exp::ExperimentConfig config = to_config(req);
  // Warm starts only make sense with a β switch late enough that the
  // shared prefix is worth snapshotting.
  const bool warm_eligible =
      req.beta_switch && req.beta_switch->at > kPrefixMargin;
  if (warm_eligible) {
    std::string key = prefix_key(req);
    if (const std::string* prefix = store_lookup(key)) {
      ++stats_.prefix_hits;
      exp::Run run(config);
      run.restore_snapshot(*prefix);
      Response resp = to_response(run.finish());
      resp.warm_started = true;
      return resp;
    }
    ++stats_.prefix_misses;
    exp::Run run(config);
    const TimePoint target =
        TimePoint::origin() + (req.beta_switch->at - kPrefixMargin);
    run.advance_to_quiescent(target);
    // Only park the snapshot if quiescence stepping stayed strictly before
    // the switch — past it the prefix would have baked in this point's β.
    if (run.now() < TimePoint::origin() + req.beta_switch->at) {
      store_insert(std::move(key), run.save_snapshot());
    }
    return to_response(run.finish());
  }
  return to_response(exp::run_experiment(config));
}

Response ServeCore::handle(const Request& req) {
  ++stats_.requests;
  std::string key = encode_request(req);
  const auto it = results_.find(key);
  if (it != results_.end()) {
    ++stats_.result_hits;
    Response resp = it->second;
    resp.cached = true;
    return resp;
  }
  ++stats_.result_misses;
  const Response resp = run_request(req);
  results_.emplace(std::move(key), resp);
  return resp;
}

std::string ServeCore::handle_frame(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  if (reader.has_section("simty-stats")) return encode_stats(stats_);
  return encode_response(handle(decode_request(bytes)));
}

}  // namespace simty::serve
