// End-to-end benchmark program; perfbench/run.py builds and runs it.
//
//   perfbench --workload fleet|standby|serve --seed N --seconds S --trace 0|1
//             [--tiny] [--inject-malformed K] [--trace-dir DIR] [--git-sha SHA]
//   perfbench --list-metrics
//
// Prints the host block as one JSON line, a calibration line in untraced
// runs, and the result as the last line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones.

#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fleet|standby|serve --seed N --seconds S "
               "--trace 0|1 [--tiny] [--inject-malformed K] [--trace-dir DIR] "
               "[--git-sha SHA]\n       perfbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-metrics") {
        std::cout << perfbench::schema_json() << "\n";
        return 0;
      }
      if (arg == "--tiny") {
        opt.tiny = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (arg == "--inject-malformed") {
        opt.inject_malformed = std::stoi(value);
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value;
      } else if (arg == "--git-sha") {
        opt.git_sha = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0) || opt.inject_malformed < 0) return usage("bad value");
  if (opt.workload != "fleet" && opt.workload != "standby" && opt.workload != "serve") {
    return usage("unknown workload '" + opt.workload + "'");
  }

  try {
    perfbench::Report report(opt.trace);
    std::cout << "{\"host\": " << perfbench::host_json(opt) << "}" << std::endl;
    if (opt.workload == "fleet") {
      perfbench::run_fleet_workload(opt, report);
    } else if (opt.workload == "standby") {
      perfbench::run_standby_workload(opt, report);
    } else {
      perfbench::run_serve_workload(opt, report);
    }
    if (opt.trace) {
      report.set("failed_frac", static_cast<double>(report.failed()) /
                                    static_cast<double>(report.attempted()));
    }
    std::cout << report.result_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
