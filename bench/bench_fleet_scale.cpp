// Fleet-scaling benchmark: sharded population simulation vs the serial path.
//
// Runs the same fleet (light three-cohort mix, short standby windows so the
// bench stays inside the CI wall-time budget) at 1e4 and 1e5 devices, once
// with jobs=1 and once with jobs=min(8, hardware threads), and reports
// devices/second for each leg plus a speedup record per scale. Capping the
// sharded leg at the host's threads keeps a small host from measuring
// oversubscription instead of sharding; its records keep the "jobs=8" name
// so the record set matches the checked-in baseline on every host. The
// sharded run must be *bit-identical* to the serial run — the full-precision
// CSVs are compared before any number is reported, so a scheduling-order
// bug fails the bench rather than quietly shifting the aggregates.
//
// `--json <path>` writes BENCH_fleet_scale.json-style records; the checked-
// in bench/BENCH_fleet_scale.json baseline is diffed by CI via
// tools/check_bench_baseline.sh, which fails when a speedup record
// collapses (hung pool, accidental serialization, shard-granularity
// regression).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/report.hpp"

namespace simty {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// A representative but cheap population: the default three-cohort shape
// (mainstream / wearables / poor-network) with 3-minute standby windows so
// a 1e5-device fleet finishes in seconds, not minutes.
std::vector<fleet::CohortSpec> bench_cohorts() {
  std::vector<fleet::CohortSpec> cohorts = fleet::default_cohorts();
  for (fleet::CohortSpec& spec : cohorts) {
    spec.standby = Duration::minutes(3);
    spec.system_alarms = false;
  }
  return cohorts;
}

fleet::FleetConfig fleet_config(std::uint64_t devices, int jobs) {
  fleet::FleetConfig fc;
  fc.cohorts = bench_cohorts();
  fc.devices = devices;
  fc.policy = exp::PolicyKind::kSimty;
  fc.seed = 2026;
  fc.jobs = jobs;
  return fc;
}

}  // namespace
}  // namespace simty

int main(int argc, char** argv) {
  using namespace simty;

  const auto json_path = bench::json_path_from_args(argc, argv);
  std::vector<bench::BenchRecord> records;
  TextTable t;
  t.set_header({"devices", "impl", "wall (ms)", "devices/sec"});

  const auto record = [&](std::uint64_t n, const std::string& impl, double wall_ms) {
    const double rate = static_cast<double>(n) / (wall_ms / 1e3);
    t.add_row({str_format("%llu", static_cast<unsigned long long>(n)), impl,
               str_format("%.1f", wall_ms), str_format("%.0f", rate)});
    records.push_back(
        {"fleet/n=" + std::to_string(n) + "/" + impl, wall_ms, rate});
  };

  const int par_jobs =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 8u));
  bool identical = true;
  double headline = 0.0;
  for (const std::uint64_t n : {std::uint64_t{10000}, std::uint64_t{100000}}) {
    auto start = Clock::now();
    const fleet::FleetResult serial = run_fleet(fleet_config(n, /*jobs=*/1));
    const double serial_ms = ms_since(start);

    start = Clock::now();
    const fleet::FleetResult sharded = run_fleet(fleet_config(n, par_jobs));
    const double sharded_ms = ms_since(start);

    // The contract the speedup rides on: byte-identical aggregates.
    identical = identical &&
                fleet::fleet_csv({serial}) == fleet::fleet_csv({sharded});

    record(n, "serial", serial_ms);
    record(n, "jobs=8", sharded_ms);
    const double speedup = serial_ms / sharded_ms;
    records.push_back(
        {"speedup/fleet/n=" + std::to_string(n), sharded_ms, speedup});
    if (n == 100000) headline = speedup;
  }

  std::printf("Fleet scaling: sharded population runs vs serial (SIMTY policy)\n");
  std::printf("%s\n", t.render().c_str());
  std::printf("fleet speedup at n=100000 (serial vs %d jobs): %.2fx\n", par_jobs,
              headline);
  if (!identical) {
    std::fprintf(stderr,
                 "error: serial and sharded fleet aggregates diverged\n");
    return 1;
  }

  if (json_path) {
    if (!bench::write_bench_json(*json_path, records)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(), json_path->c_str());
  }
  return 0;
}
