#pragma once
// Experiment harness: assembles the full stack (simulator, device, RTC,
// wakelocks, energy accountant, alarm manager, workload, system alarms),
// runs a connected-standby session, and collects every metric the paper
// reports. Repetitions over seeds are averaged, matching the paper's "three
// times, reported the average" protocol.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "alarm/similarity.hpp"
#include "apps/workload.hpp"
#include "hw/power_model.hpp"
#include "hw/wur.hpp"
#include "common/arena.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "net/drx.hpp"
#include "power/energy_accounting.hpp"

namespace simty::trace {
class Tracer;
}

namespace simty::exp {

/// Which alignment policy to run.
enum class PolicyKind { kNative, kSimty, kExact, kSimtyDuration, kFixedInterval };

const char* to_string(PolicyKind p);

/// Which workload to deploy.
enum class WorkloadKind { kLight, kHeavy, kSynthetic };

const char* to_string(WorkloadKind w);

/// Full experiment description.
struct ExperimentConfig {
  PolicyKind policy = PolicyKind::kNative;
  alarm::SimilarityConfig similarity;   // for SIMTY variants
  WorkloadKind workload = WorkloadKind::kLight;
  std::size_t synthetic_apps = 18;      // when workload == kSynthetic

  /// When non-empty, overrides `workload`: the resident apps are built from
  /// exactly these profiles (Workload::from_profiles; irregular profiles get
  /// trace-replay imitations like the heavy workload). This is how the
  /// fleet layer runs each device on its sampled per-device catalog.
  std::vector<apps::AppProfile> custom_profiles;
  double beta = apps::kPaperBeta;       // platform grace factor
  Duration duration = Duration::hours(3);
  std::uint64_t seed = 1;
  bool system_alarms = true;

  /// Slot length for PolicyKind::kFixedInterval (ignored otherwise).
  Duration fixed_interval = Duration::seconds(300);

  /// Optional downlink DRX/paging scenario (net/drx.hpp): when set, the run
  /// deploys a net::CellularStandby harness with a DrxPager on this config.
  /// With drx->wur the run also owns a hw::WakeupReceiver (parameters in
  /// `wur` below) that answers pages instead of DRX listening.
  std::optional<net::DrxConfig> drx;

  /// Wake-up receiver parameters, used only when drx && drx->wur.
  hw::WurConfig wur;

  /// Device power model (defaults to the paper-calibrated Nexus 5).
  hw::PowerModel power_model = hw::PowerModel::nexus5();

  /// Enables the AOSP-M-style Doze controller on top of the policy. Doze
  /// intentionally breaks the §3.2.2 guarantees — gap_violations and
  /// worst_gap_ratio in the result quantify the damage.
  bool doze = false;

  /// Mid-run grace-factor switch: at origin + `at` the platform re-grades
  /// every repeating alarm to grace = max(β·repeat, window) and rebatches
  /// (alarm::AlarmManager::apply_grace_factor). β lives only in the switch
  /// event's closure, never in serialized state, so exp::Run snapshots
  /// taken before `at` are byte-identical across configs differing only in
  /// `beta` — the common prefix the sweep server warm-starts from.
  struct BetaSwitch {
    Duration at = Duration::zero();
    double beta = apps::kPaperBeta;
  };
  std::optional<BetaSwitch> beta_switch;

  /// Captures a trace::DeliveryLog inside the run (exp::Run::delivery_log).
  /// Unlike extra_delivery_observer, the internal log serializes with the
  /// run's snapshot, so a checkpoint-resumed run exports a byte-identical
  /// CSV. Does not force the serial path.
  bool capture_delivery_log = false;

  /// Optional extra observers wired into the run's alarm manager (e.g. a
  /// trace::DeliveryLog or a power::AppEnergyAttributor).
  alarm::DeliveryObserver extra_delivery_observer;
  alarm::SessionObserver extra_session_observer;

  /// Optional extra power-bus listener (e.g. a caller-owned PowerMonitor
  /// capturing the waveform). Must outlive the run.
  hw::PowerListener* extra_power_listener = nullptr;

  /// Optional structured run tracer (see trace/tracer.hpp). Unlike the
  /// observer hooks above it does NOT force the serial path: the tracer is
  /// installed thread-locally inside the one run that carries it, and
  /// run_repeated keeps it on the base seed only — which is exactly what
  /// makes serial-vs-parallel trace comparison a meaningful determinism
  /// check. Must outlive the run; not thread-safe across runs.
  trace::Tracer* tracer = nullptr;

  /// Per-run storage backing. A non-null arena is threaded behind the
  /// run's event-queue slabs, so a caller that runs many experiments back
  /// to back (the fleet shard loop, sweep repetitions) can reset() between
  /// runs instead of reallocating.
  /// Presence of an arena never changes any result bit. The arena must
  /// outlive the run and, being single-threaded, forces the serial path in
  /// run_repeated (the parallel runner injects its own per-worker arenas
  /// when the config carries none).
  struct ArenaOptions {
    common::Arena* arena = nullptr;
  };
  ArenaOptions arena_opts;
};

/// All metrics of one run (or the mean over several runs; counts become
/// fractional after averaging).
struct RunResult {
  std::string policy_name;
  Duration duration = Duration::zero();
  int runs = 1;

  // Energy (Fig 3).
  power::EnergyBreakdown energy;
  double average_power_mw = 0.0;
  double projected_standby_hours = 0.0;  // full Nexus 5 pack at avg power

  // Delay (Fig 4).
  double delay_perceptible = 0.0;
  double delay_imperceptible = 0.0;
  double delay_imperceptible_p95 = 0.0;  // tail of the delay distribution

  // Wakeups (Table 4): CPU, Speaker&Vibrator, Wi-Fi, WPS, Accelerometer.
  struct HwCounts {
    std::string hardware;
    double actual = 0.0;
    double expected = 0.0;
  };
  std::vector<HwCounts> wakeups;

  // Volume stats.
  double deliveries = 0.0;
  double batches_delivered = 0.0;
  double one_shots = 0.0;
  double awake_seconds = 0.0;
  double asleep_seconds = 0.0;

  // Guarantee audit (§3.2.2).
  double worst_gap_ratio = 0.0;
  std::uint64_t gap_violations = 0;
  std::uint64_t perceptible_window_misses = 0;  // beyond window + wake latency

  // Downlink paging scenario (zero unless ExperimentConfig::drx is set).
  double pages_answered = 0.0;
  double page_delay_avg_s = 0.0;        // arrival -> answer, mean
  double page_delay_p95_s = 0.0;
  double drx_listen_seconds = 0.0;      // main-radio paging on-durations
  double wur_listen_seconds = 0.0;      // wake-up receiver listen time
  double wur_triggers = 0.0;
};

/// Runs one seeded experiment. Takes the config by value so a caller done
/// with it can move it in (a fleet device's catalog is then never copied).
RunResult run_experiment(ExperimentConfig config);

/// Runs `repetitions` experiments with seeds seed, seed+1, ... and returns
/// the component-wise mean. `jobs > 1` fans the seeds out over a thread
/// pool (see exp/parallel_runner.hpp); results are reduced in seed order,
/// so the mean is byte-identical to the serial path. Configs carrying
/// extra observers or power listeners always run serially — those hooks
/// are caller-owned and not required to be thread-safe.
RunResult run_repeated(ExperimentConfig config, int repetitions, int jobs = 1);

/// Component-wise mean of per-seed results (exposed for tests).
RunResult average_results(const std::vector<RunResult>& results);

/// Mean plus across-seed spread of the key metrics (for EXPERIMENTS.md's
/// "how stable is this number" question).
struct RepeatedStats {
  RunResult mean;
  OnlineStats total_j;
  OnlineStats awake_j;
  OnlineStats delay_imperceptible;
  OnlineStats cpu_wakeups;
  OnlineStats standby_hours;
};

/// Same parallelism and determinism contract as run_repeated.
RepeatedStats run_repeated_stats(ExperimentConfig config, int repetitions,
                                 int jobs = 1);

}  // namespace simty::exp
