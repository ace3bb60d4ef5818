#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <map>
#include <queue>
#include <unordered_map>

namespace perfbench {

namespace tr = simty::trace;

int Options::jobs() const {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

// --- Metric schema -------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_specs() {
  // An op is one device (fleet), one standby run (standby) or one request
  // (serve); see README.md for what each metric means per workload.
  static const std::vector<MetricSpec> specs = {
      {"ops_per_s", "1/s", Better::kHigher, 0.20},
      {"op_p50_ms", "ms", Better::kLower, 0.20},
      {"op_p99_ms", "ms", Better::kLower, 0.24},
      {"setup_s", "s", Better::kLower, 0.25},
      {"peak_rss_mib", "MiB", Better::kLower, 0.10},
  };
  return specs;
}

namespace {

std::vector<MetricSpec> build_per_layer_specs() {
  std::vector<MetricSpec> s;
  auto add = [&s](std::string name, std::string unit, Better b) {
    s.push_back({std::move(name), std::move(unit), b, 0.0});
  };
  const Better lo = Better::kLower;
  const Better hi = Better::kHigher;
  add("failed_frac", "ratio", lo);
  add("trace.overhead_frac", "ratio", lo);
  for (const char* layer : {"fleet", "standby", "serve", "codec", "apps", "exp", "snapshot"}) {
    add(std::string("self_frac.") + layer, "ratio", lo);
  }
  add("fleet.sample_us", "us", lo);
  add("fleet.aggregate_us", "us", lo);
  add("fleet.devices_per_s_par", "1/s", hi);
  add("fleet.par_efficiency", "ratio", hi);
  add("apps.build_us", "us", lo);
  add("exp.build_us", "us", lo);
  add("exp.finish_us", "us", lo);
  add("exp.build_share", "ratio", lo);
  add("exp.prefix_ms", "ms", lo);
  add("sim.events", "count", lo);
  add("sim.ns_per_event", "ns", lo);
  for (const std::string& l : paper_sim_labels()) add("sim.events." + l, "count", lo);
  add("sim.events.other", "count", lo);
  add("sim.paging.events", "count", lo);
  add("sim.paging.ns_per_event", "ns", lo);
  for (const std::string& l : paging_sim_labels()) add("sim.paging.events." + l, "count", lo);
  add("sim.paging.events.other", "count", lo);
  for (const char* a : {"batch_create", "batch_join", "batch_split", "batch_deliver",
                        "batch_candidates", "rebatch_all", "deliveries", "batches"}) {
    add(std::string("alarm.") + a, "count", lo);
  }
  add("hw.device_state", "count", lo);
  add("hw.cold_starts", "count", lo);
  add("hw.warm_starts", "count", lo);
  add("power.publishes", "count", lo);
  add("net.rrc_state", "count", lo);
  add("net.page_arrival", "count", lo);
  add("net.pages_answered", "count", lo);
  add("net.wur_triggers", "count", lo);
  add("snapshot.save_us", "us", lo);
  add("snapshot.restore_us", "us", lo);
  add("snapshot.bytes", "bytes", lo);
  add("serve.hit_us", "us", lo);
  add("serve.warm_ms", "ms", lo);
  add("serve.miss_ms", "ms", lo);
  add("serve.codec_us", "us", lo);
  add("serve.result_hit_ratio", "ratio", hi);
  add("serve.prefix_hit_ratio", "ratio", hi);
  add("serve.prefix_hit_ratio_4seeds", "ratio", hi);
  add("serve.prefix_hit_ratio_12seeds", "ratio", hi);
  add("serve.evictions", "count", lo);
  for (const char* p : {"native", "simty", "exact", "simty-dur", "simty-drx", "simty-wur"}) {
    add(std::string("model.energy_j.") + p, "J", lo);
  }
  add("model.simty_native_energy_ratio", "ratio", lo);
  // Digests have no direction: they must not move at all in a perf change.
  for (const char* w : {"fleet", "standby", "serve"}) {
    add(std::string("model.digest.") + w, "hash", hi);
  }
  return s;
}

const char* better_name(Better b) { return b == Better::kHigher ? "higher" : "lower"; }

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = build_per_layer_specs();
  return specs;
}

std::string schema_json() {
  std::string out = "{\"end_to_end\": [";
  bool first = true;
  for (const MetricSpec& m : end_to_end_specs()) {
    out += std::string(first ? "" : ", ") + "{\"name\": \"" + m.name + "\", \"unit\": \"" +
           m.unit + "\", \"better\": \"" + better_name(m.better) +
           "\", \"bound\": " + number(m.bound) + "}";
    first = false;
  }
  out += "], \"per_layer\": [";
  first = true;
  for (const MetricSpec& m : per_layer_specs()) {
    out += std::string(first ? "" : ", ") + "{\"name\": \"" + m.name + "\", \"unit\": \"" +
           m.unit + "\", \"better\": \"" + better_name(m.better) + "\"}";
    first = false;
  }
  return out + "]}";
}

void Report::set(const std::string& name, double value) {
  const auto& specs = trace_ ? per_layer_specs() : end_to_end_specs();
  const bool known = std::any_of(specs.begin(), specs.end(),
                                 [&](const MetricSpec& m) { return m.name == name; });
  if (!known) throw std::logic_error("perfbench: metric outside the schema: " + name);
  if (!std::isfinite(value)) throw std::logic_error("perfbench: non-finite metric " + name);
  values_[name] = value;
}

void Report::fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  static int logged = 0;
  if (logged++ < 20) std::cerr << "perfbench: op failed: " << why << "\n";
}

std::string Report::result_json() const {
  std::string metrics;
  for (const MetricSpec& m : trace_ ? per_layer_specs() : end_to_end_specs()) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !trace_) {
      throw std::logic_error("perfbench: end-to-end metric not measured: " + m.name);
    }
    const double v = it == values_.end() ? 0.0 : it->second;
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (failed_ == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" + metrics + "}}";
}

// --- Inputs and statistics ----------------------------------------------

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

LatencySamples::LatencySamples() : buf_(std::size_t{1} << 20, 0.0) {}

double LatencySamples::quantile(double q) const {
  return perfbench::quantile(
      std::vector<double>(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n_)), q);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

volatile std::uint64_t g_kernel_sink = 0;

/// The calibration kernel; see HostSpeed. Fixed work, fresh state on every
/// call: ordered-map updates, lookups and erases, and heap pushes and pops.
/// About 10 ms on the host this was written on.
double reference_kernel_ms() {
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::uint64_t> tree;
  std::priority_queue<std::uint64_t> heap;
  InputRng rng(42);
  std::uint64_t acc = 0;
  for (int i = 0; i < 25'000; ++i) {
    const std::uint64_t z = rng.next();
    tree[z & 0xFFFF] += z;
    heap.push(z);
    if (heap.size() > 512) {
      acc += heap.top();
      heap.pop();
    }
    const auto it = tree.lower_bound(z & 0xFFF0);
    if (it != tree.end()) {
      acc += it->second;
      if ((z & 3) == 0) tree.erase(it);
    }
  }
  g_kernel_sink = acc;
  return seconds_between(t0, Clock::now()) * 1e3;
}

}  // namespace

void HostSpeed::sample() {
  ms_.push_back(reference_kernel_ms());
  last_ = Clock::now();
}

void HostSpeed::sample_if_due() {
  if (ms_.empty() || seconds_between(last_, Clock::now()) >= kIntervalS) sample();
}

double HostSpeed::median_ms() const { return median(ms_); }

double HostSpeed::slowdown() const { return median_ms() / kNominalMs; }

void report_end_to_end(Report& report, double ops, double measured_s,
                       const LatencySamples& latency, const std::vector<double>& setup_s,
                       double rss_mib, const HostSpeed& speed) {
  const double f = speed.slowdown();
  const double rate = ops / measured_s;
  const double p50 = latency.quantile(0.50);
  const double setup = median(setup_s);
  report.set("ops_per_s", rate * f);
  report.set("op_p50_ms", p50 / f);
  report.set("op_p99_ms", latency.quantile(0.99));
  report.set("setup_s", setup / f);
  report.set("peak_rss_mib", rss_mib);
  std::cout << "{\"calibration\": {\"kernel_median_ms\": " << number(speed.median_ms())
            << ", \"kernel_samples\": " << speed.samples() << ", \"slowdown\": " << number(f)
            << ", \"unscaled\": {\"ops_per_s\": " << number(rate)
            << ", \"op_p50_ms\": " << number(p50) << ", \"setup_s\": " << number(setup)
            << "}}}\n";
}

// --- Digests -------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

void put(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  out.append(reinterpret_cast<const char*>(&bits), sizeof bits);
}
void put(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

std::string result_bytes(const simty::exp::RunResult& r) {
  std::string out = r.policy_name;
  put(out, static_cast<std::uint64_t>(r.duration.us()));
  put(out, static_cast<std::uint64_t>(r.runs));
  const auto& e = r.energy;
  for (const simty::Energy v : {e.sleep, e.waking, e.awake_base, e.wake_transitions,
                                e.component_active, e.component_activation}) {
    put(out, v.mj());
  }
  for (const simty::Energy v : e.per_component) put(out, v.mj());
  for (const double v :
       {r.average_power_mw, r.projected_standby_hours, r.delay_perceptible,
        r.delay_imperceptible, r.delay_imperceptible_p95, r.deliveries,
        r.batches_delivered, r.one_shots, r.awake_seconds, r.asleep_seconds,
        r.worst_gap_ratio, r.pages_answered, r.page_delay_avg_s, r.page_delay_p95_s,
        r.drx_listen_seconds, r.wur_listen_seconds, r.wur_triggers}) {
    put(out, v);
  }
  put(out, r.gap_violations);
  put(out, r.perceptible_window_misses);
  for (const auto& w : r.wakeups) {
    out += w.hardware;
    put(out, w.actual);
    put(out, w.expected);
  }
  return out;
}

double digest_value(std::uint64_t h) { return static_cast<double>(h >> 11); }

// --- Spans ---------------------------------------------------------------

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace

int SpanLog::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, op, now_ns(), 0});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

std::map<std::string, double> SpanLog::layer_self_s() const {
  std::map<std::string, double> out;
  for (const auto& [name, t] : totals()) out[layer_of(name)] += t.self_s;
  return out;
}

double SpanLog::top_level_s() const {
  double s = 0.0;
  for (const Span& sp : spans_) {
    if (sp.parent < 0) s += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
  }
  return s;
}

void SpanLog::write(const std::string& dir, const std::string& stem,
                    const std::string& header_json) const {
  std::filesystem::create_directories(dir);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  {
    std::ofstream csv(dir + "/" + stem + ".spans.csv");
    csv << "id,name,parent,op,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      csv << i << ',' << s.name << ',' << s.parent << ',' << s.op << ','
          << (s.start_ns - t0) << ',' << (s.end_ns - t0) << '\n';
    }
    if (!csv) throw std::runtime_error("perfbench: cannot write spans to " + dir);
  }
  std::ofstream js(dir + "/" + stem + ".summary.json");
  js << "{\"host\": " << header_json << ", \"spans\": " << spans_.size()
     << ", \"dropped\": " << dropped_ << ", \"by_name\": {";
  bool first = true;
  for (const auto& [name, t] : totals()) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << t.count
       << ", \"total_s\": " << number(t.total_s) << ", \"self_s\": " << number(t.self_s) << "}";
    first = false;
  }
  js << "}, \"layer_self_s\": {";
  first = true;
  for (const auto& [layer, s] : layer_self_s()) {
    js << (first ? "" : ", ") << "\"" << layer << "\": " << number(s);
    first = false;
  }
  js << "}}\n";
  if (!js) throw std::runtime_error("perfbench: cannot write span summary to " + dir);
}

// --- Layer counts ----------------------------------------------------------

void EventCounts::add(const tr::Tracer& tracer) {
  // Count by label pointer first (labels are literals or interned), then
  // fold by content: two pointers may carry the same text.
  std::unordered_map<const char*, double> by_ptr[5];
  for (const tr::TraceEvent& e : tracer.snapshot()) {
    const bool counted = e.kind == tr::TraceEventKind::kInstant ||
                         (e.kind == tr::TraceEventKind::kSpanBegin &&
                          e.category == tr::TraceCategory::kSim);
    if (counted) by_ptr[static_cast<int>(e.category)][e.label] += 1.0;
  }
  for (int c = 0; c < 5; ++c) {
    const std::string cat = tr::to_string(static_cast<tr::TraceCategory>(c));
    for (const auto& [label, n] : by_ptr[c]) counts_[cat + ":" + label] += n;
  }
}

double EventCounts::get(std::string_view category, std::string_view label) const {
  const auto it = counts_.find(std::string(category) + ":" + std::string(label));
  return it == counts_.end() ? 0.0 : it->second;
}

double EventCounts::rest(std::string_view category,
                         const std::vector<std::string>& except) const {
  const std::string prefix = std::string(category) + ":";
  double total = 0.0;
  for (const auto& [key, n] : counts_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string label = key.substr(prefix.size());
    if (std::find(except.begin(), except.end(), label) == except.end()) total += n;
  }
  return total;
}

const std::vector<std::string>& paper_sim_labels() {
  static const std::vector<std::string> labels = {
      "wakelock-acquire", "wakelock-release", "device-suspend", "device-wake-complete",
      "rtc-interrupt", "session-end", "system-one-shot-spawn"};
  return labels;
}

const std::vector<std::string>& paging_sim_labels() {
  static const std::vector<std::string> labels = {
      "drx-occasion", "drx-listen-end", "page-arrival", "page-hold",
      "rrc-dch-fach", "rrc-fach-idle", "wur-answer"};
  return labels;
}

void LayerCounts::add_run(const tr::Tracer& tracer, std::uint64_t events_processed,
                          std::uint64_t publish_count, const simty::exp::RunResult& r) {
  events.add(tracer);
  runs += 1;
  sim_events += static_cast<double>(events_processed);
  publishes += static_cast<double>(publish_count);
  deliveries += r.deliveries;
  batches += r.batches_delivered;
  pages_answered += r.pages_answered;
  wur_triggers += r.wur_triggers;
}

void report_sim(Report& report, const LayerCounts& c, bool paging, double finish_s,
                double timed_events) {
  const std::string sim = paging ? "sim.paging" : "sim";
  const auto& labels = paging ? paging_sim_labels() : paper_sim_labels();
  report.set(sim + ".events", c.per_run(c.sim_events));
  report.set(sim + ".ns_per_event", timed_events > 0 ? finish_s * 1e9 / timed_events : 0.0);
  for (const std::string& l : labels) {
    report.set(sim + ".events." + l, c.per_run(c.events.get("sim", l)));
  }
  report.set(sim + ".events.other", c.per_run(c.events.rest("sim", labels)));
}

void report_alarm_hw(Report& report, const LayerCounts& c) {
  for (const char* a : {"batch-create", "batch-join", "batch-split", "batch-deliver",
                        "batch-candidates", "rebatch-all"}) {
    std::string name = std::string("alarm.") + a;
    std::replace(name.begin(), name.end(), '-', '_');
    report.set(name, c.per_run(c.events.get("alarm", a)));
  }
  report.set("alarm.deliveries", c.per_run(c.deliveries));
  report.set("alarm.batches", c.per_run(c.batches));
  report.set("hw.device_state", c.per_run(c.events.get("hw", "device-state")));
  report.set("hw.cold_starts", c.per_run(c.events.get("hw", "component-cold-start")));
  report.set("hw.warm_starts", c.per_run(c.events.get("hw", "component-warm-start")));
  report.set("power.publishes", c.per_run(c.publishes));
}

void report_net(Report& report, const LayerCounts& c) {
  report.set("net.rrc_state", c.per_run(c.events.get("net", "rrc-state")));
  report.set("net.page_arrival", c.per_run(c.events.get("net", "page-arrival")));
  report.set("net.pages_answered", c.per_run(c.pages_answered));
  report.set("net.wur_triggers", c.per_run(c.wur_triggers));
}

// --- Host block -------------------------------------------------------------

std::string host_json(const Options& opt) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(SIMTY_TRACE_DISABLED)
  const char* tracing = "false";
#else
  const char* tracing = "true";
#endif
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
    << json_escape(cpu) << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \""
    << json_escape(opt.git_sha) << "\", \"tracing_compiled\": " << tracing
    << ", \"workload\": \"" << json_escape(opt.workload) << "\", \"seed\": " << opt.seed
    << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"tiny\": " << (opt.tiny ? 1 : 0) << "}";
  return o.str();
}

}  // namespace perfbench
