// Layering and include-cycle passes.
//
// The module table assigns each file a (module, layer) by longest-prefix
// match. An include from layer L into layer L' > L in a *different* module
// is a back edge — an error naming both modules. Any cycle in the resolved
// include graph is an error printing the loop.

#include <algorithm>
#include <string>

#include "model.hpp"

namespace simty::lint {

namespace {

/// One row of the module table. A prefix matches at a '/', '.', or end
/// boundary, so "src/trace/tracer" claims trace/tracer.{hpp,cpp} out of
/// module "trace".
struct ModuleRule {
  std::string_view prefix;
  std::string_view module;
  int layer = 0;  // includes may only point at layers <= their own
};

// Layer n may include layers <= n. The order mirrors the real dependency
// structure: tracer (trace/tracer.*) is split out of module `trace` because
// the event core emits trace records while the high-level delivery log
// consumes alarm-layer types.
constexpr ModuleRule kModules[] = {
    {"src/common", "common", 0},
    {"src/trace/tracer", "tracer", 1},
    {"src/snapshot", "snapshot", 1},  // pure serialization over common
    {"src/sim", "sim", 2},
    {"src/hw", "hw", 3},
    {"src/alarm", "alarm", 4},
    {"src/metrics", "metrics", 5},
    {"src/power", "power", 5},
    {"src/net", "net", 5},
    {"src/apps", "apps", 6},
    {"src/gcm", "gcm", 6},
    {"src/trace", "trace", 7},
    {"src/exp", "exp", 8},
    {"src/usage", "usage", 9},
    {"src/fleet", "fleet", 9},
    {"src/serve", "serve", 9},  // sweep server drives exp runs
    {"src/cli", "cli", 10},
    {"src/simty.hpp", "cli", 10},  // umbrella header may see everything
};

/// Longest-prefix module lookup; nullptr when no rule matches (bench/,
/// tools/ — out of the DAG).
const ModuleRule* module_of(std::string_view path) {
  const ModuleRule* best = nullptr;
  for (const ModuleRule& rule : kModules) {
    if (under_prefix(path, rule.prefix) &&
        (best == nullptr || rule.prefix.size() >= best->prefix.size())) {
      best = &rule;
    }
  }
  return best;
}

}  // namespace

void run_layering(const Graph& g, Report& report) {
  // Back edges over direct includes.
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    const FileModel& m = g.models[i];
    const ModuleRule* from = module_of(m.path);
    if (from == nullptr) continue;
    for (std::size_t k = 0; k < m.includes.size(); ++k) {
      const int t = g.includes[i][k];
      if (t < 0) continue;
      const ModuleRule* to = module_of(g.models[static_cast<std::size_t>(t)].path);
      if (to == nullptr || to->module == from->module || to->layer <= from->layer) continue;
      if (m.includes[k].layering_allowed) continue;
      Finding f;
      f.rule = "layering";
      f.file = m.path;
      f.line = m.includes[k].line;
      f.message = "module '" + std::string(from->module) + "' (layer " +
                  std::to_string(from->layer) + ") must not include '" + m.includes[k].spelled +
                  "' from module '" + std::string(to->module) + "' (layer " +
                  std::to_string(to->layer) + ")";
      f.chain = {m.path + " -> " + g.models[static_cast<std::size_t>(t)].path};
      report.findings.push_back(std::move(f));
    }
  }

  // Include cycles (any modules — a cycle breaks single-pass builds and
  // poisons the closure the taint pass depends on). DFS with colors; each
  // cycle is reported once, anchored at its lexicographically smallest file.
  {
    enum Color { kWhite, kGray, kBlack };
    std::vector<Color> color(g.models.size(), kWhite);
    std::vector<int> stack_pos(g.models.size(), -1);
    std::vector<int> path;
    std::vector<std::vector<int>> cycles;

    struct Frame {
      int node;
      std::size_t next = 0;
    };
    for (std::size_t start = 0; start < g.models.size(); ++start) {
      if (color[start] != kWhite) continue;
      std::vector<Frame> frames{{static_cast<int>(start)}};
      color[start] = kGray;
      stack_pos[start] = 0;
      path = {static_cast<int>(start)};
      while (!frames.empty()) {
        Frame& fr = frames.back();
        const auto& outs = g.includes[static_cast<std::size_t>(fr.node)];
        if (fr.next < outs.size()) {
          const int t = outs[fr.next++];
          if (t < 0) continue;
          if (color[static_cast<std::size_t>(t)] == kGray) {
            // Found a cycle: path from t's stack position to the top.
            std::vector<int> cyc(path.begin() + stack_pos[static_cast<std::size_t>(t)],
                                 path.end());
            const auto min_it = std::min_element(
                cyc.begin(), cyc.end(), [&](int a, int b) {
                  return g.models[static_cast<std::size_t>(a)].path <
                         g.models[static_cast<std::size_t>(b)].path;
                });
            std::rotate(cyc.begin(), min_it, cyc.end());
            if (std::find(cycles.begin(), cycles.end(), cyc) == cycles.end()) {
              cycles.push_back(cyc);
            }
          } else if (color[static_cast<std::size_t>(t)] == kWhite) {
            color[static_cast<std::size_t>(t)] = kGray;
            stack_pos[static_cast<std::size_t>(t)] = static_cast<int>(path.size());
            path.push_back(t);
            frames.push_back({t});
          }
        } else {
          color[static_cast<std::size_t>(fr.node)] = kBlack;
          path.pop_back();
          frames.pop_back();
        }
      }
    }
    std::sort(cycles.begin(), cycles.end(), [&](const auto& a, const auto& b) {
      return g.models[static_cast<std::size_t>(a.front())].path <
             g.models[static_cast<std::size_t>(b.front())].path;
    });
    for (const auto& cyc : cycles) {
      const FileModel& anchor = g.models[static_cast<std::size_t>(cyc.front())];
      Finding f;
      f.rule = "include-cycle";
      f.file = anchor.path;
      f.line = 1;
      f.message = "include cycle of " + std::to_string(cyc.size()) + " file(s)";
      for (std::size_t n = 0; n < cyc.size(); ++n) {
        f.chain.push_back(g.models[static_cast<std::size_t>(cyc[n])].path + " -> " +
                          g.models[static_cast<std::size_t>(cyc[(n + 1) % cyc.size()])].path);
      }
      report.findings.push_back(std::move(f));
    }
  }
}

}  // namespace simty::lint
