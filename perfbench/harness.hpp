#pragma once
// Shared pieces of the end-to-end benchmark program: options, the metric
// schema and report, host-clock spans, tracer-derived layer counts, and
// digests of program outputs.
//
// Every number here is taken from outside the simulator: host-clock spans
// around calls to each layer's public functions, plus counts from hooks the
// program already exposes (ExperimentConfig::tracer and
// extra_power_listener, Simulator::events_processed, RunResult,
// ServeStats). Nothing under src/ is modified or instrumented for it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "hw/power_bus.hpp"
#include "trace/tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-test; the metric set is unchanged.
  bool tiny = false;
  /// Malformed frames mixed into the serve stream (self-test only).
  int inject_malformed = 0;
  std::string trace_dir = ".bench_build/perfbench-traces";
  std::string git_sha = "unknown";

  /// Worker count for the parallel fleet path: min(nproc, 4).
  int jobs() const;
};

// --- Metric schema -------------------------------------------------------

enum class Better { kHigher, kLower };

struct MetricSpec {
  std::string name;
  std::string unit;
  Better better = Better::kLower;
  /// End-to-end only: the regression bound as a share of the median.
  double bound = 0.0;
};

/// Printed by every untraced run, on every workload.
const std::vector<MetricSpec>& end_to_end_specs();
/// Printed by every traced run, on every workload; a layer the workload
/// does not exercise reads 0.
const std::vector<MetricSpec>& per_layer_specs();
/// Both lists with units and directions, as JSON (for the self-test).
std::string schema_json();

/// The outcome of one run: op counts plus named metric values. set()
/// rejects names outside the schema for the run's mode.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void set(const std::string& name, double value);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The result, printed last: {"correct", "attempted", "failed", "metrics"}.
  /// Throws if an end-to-end metric was never set.
  std::string result_json() const;

 private:
  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

// --- Inputs and statistics ----------------------------------------------

/// SplitMix64: the benchmark's own input generator, so the program under
/// test only ever sees generated values, never the workload seed.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q);

/// Per-op latency samples in a buffer sized and touched before set-up, so
/// the resident set does not grow with the number of ops a run completes.
class LatencySamples {
 public:
  LatencySamples();
  void add(double ms) {
    if (n_ < buf_.size()) buf_[n_++] = ms;
  }
  double quantile(double q) const;

 private:
  std::vector<double> buf_;
  std::size_t n_ = 0;
};

/// Resident-set high-water mark of this process, MiB.
double peak_rss_mib();

/// Host-speed calibration. The benchmark's host is shared: other tenants'
/// load slows every instruction stream on it by up to half, for seconds or
/// minutes at a time, and a run's median latency and throughput follow the
/// share of time the host spends slow. A fixed reference kernel owned by
/// the benchmark (ordered-map updates and heap operations, the mix a
/// discrete-event simulator spends its time on) is timed between windows
/// of ops; its median over the run, divided by its nominal time, is the
/// run's slowdown factor. Nothing under src/ can change the kernel, short of
/// replacing the global allocator.
class HostSpeed {
 public:
  /// Times the kernel once.
  void sample();
  /// Times the kernel if kIntervalS has passed since the last time.
  void sample_if_due();
  /// Median kernel time over nominal; > 1 when the host runs slow.
  double slowdown() const;
  double median_ms() const;
  std::size_t samples() const { return ms_.size(); }

  static constexpr double kNominalMs = 10.0;
  static constexpr double kIntervalS = 0.25;

 private:
  std::vector<double> ms_;
  Clock::time_point last_{};
};

/// Sets the end-to-end metrics of an untraced run: `ops` completed in
/// `measured_s` of timed work, the per-op latencies, the set-up times and
/// the resident-set peak. ops_per_s, op_p50_ms and setup_s are scaled to
/// the nominal host speed by `speed`; the unscaled values and the factor
/// are printed on a "calibration" line. op_p99_ms is not scaled: the tail is
/// set by the slow state, which every run reaches, and scaling it by the
/// run's median speed made it less steady, not more.
void report_end_to_end(Report& report, double ops, double measured_s,
                       const LatencySamples& latency, const std::vector<double>& setup_s,
                       double rss_mib, const HostSpeed& speed);

// --- Digests of program outputs -----------------------------------------

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = 1469598103934665603ull);
/// Every RunResult field at full precision (raw double bits).
std::string result_bytes(const simty::exp::RunResult& r);
/// A digest as a metric value: the top 53 bits, exact in a JSON double.
double digest_value(std::uint64_t h);

// --- Host-clock spans ----------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end, parent
/// span and op id per span. Written out once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// `name` must be a string literal.
  int begin(const char* name, std::uint64_t op);
  void end(int id);

  /// RAII span; a disabled log records nothing.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t op)
        : log_(log), id_(log.begin(name, op)) {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time its child spans cover
  };
  /// Per span name.
  std::map<std::string, Totals> totals() const;
  /// Self time summed per layer (the span-name prefix before '.').
  std::map<std::string, double> layer_self_s() const;
  /// Sum of top-level span durations.
  double top_level_s() const;

  /// Writes <dir>/<stem>.spans.csv and <dir>/<stem>.summary.json.
  void write(const std::string& dir, const std::string& stem,
             const std::string& header_json) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::size_t kMaxSpans = 4'000'000;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t dropped_ = 0;
};

// --- Layer counts from existing hooks -------------------------------------

/// Counts power-bus callbacks (ExperimentConfig::extra_power_listener).
class PublishCounter : public simty::hw::PowerListener {
 public:
  void on_device_state(simty::TimePoint, simty::hw::DeviceState, simty::Power) override {
    ++count;
  }
  void on_component_power(simty::TimePoint, simty::hw::Component, bool,
                          simty::Power) override {
    ++count;
  }
  void on_impulse(simty::TimePoint, simty::Energy, simty::hw::ImpulseKind,
                  std::string_view) override {
    ++count;
  }
  std::uint64_t count = 0;
};

/// Tracer events of one or more runs, counted by "<category>:<label>"
/// (sim spans are counted once, at their begin).
class EventCounts {
 public:
  void add(const simty::trace::Tracer& tracer);
  double get(std::string_view category, std::string_view label) const;
  /// Sum over a category's labels, minus those listed.
  double rest(std::string_view category, const std::vector<std::string>& except) const;

 private:
  std::map<std::string, double, std::less<>> counts_;
};

/// Sim labels reported one by one; the rest sum into ".other".
const std::vector<std::string>& paper_sim_labels();
const std::vector<std::string>& paging_sim_labels();

/// Accumulates the count-type per-layer metrics of one kind of run and
/// reports them as means per run.
struct LayerCounts {
  EventCounts events;
  double runs = 0;
  double sim_events = 0;
  double publishes = 0;
  double deliveries = 0;
  double batches = 0;
  double pages_answered = 0;
  double wur_triggers = 0;

  void add_run(const simty::trace::Tracer& tracer, std::uint64_t events_processed,
               std::uint64_t publish_count, const simty::exp::RunResult& r);
  double per_run(double total) const { return runs > 0 ? total / runs : 0.0; }
};

/// Reports sim.* (sim.paging.* when `paging`) from `c`. ns_per_event is
/// `finish_s` over `timed_events`, both summed over every timed run (the
/// counts themselves cover a fixed subset, so they repeat exactly).
void report_sim(Report& report, const LayerCounts& c, bool paging, double finish_s,
                double timed_events);
/// Reports alarm.*, hw.* and power.* from `c`.
void report_alarm_hw(Report& report, const LayerCounts& c);
/// Reports net.* from `c`.
void report_net(Report& report, const LayerCounts& c);

// --- Host block -----------------------------------------------------------

/// {"nproc", "cpu_model", "compiler", "build_type", "git_sha",
///  "tracing_compiled", "workload", "seed", "trace"} as one JSON object.
std::string host_json(const Options& opt);

// --- Workloads -------------------------------------------------------------

void run_fleet_workload(const Options& opt, Report& report);
void run_standby_workload(const Options& opt, Report& report);
void run_serve_workload(const Options& opt, Report& report);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

}  // namespace perfbench
