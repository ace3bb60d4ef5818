#pragma once
// SIMTY determinism checker: per-file rules plus whole-tree passes.
//
// The simulator's load-bearing contract is bit-identical determinism:
// NATIVE-vs-SIMTY comparisons (and the parallel runner's submission-order
// reduction) are only meaningful if a run is a pure function of its seed.
// Generic tools cannot check that contract, so this checker enforces the
// project-local rules the event core relies on. Per file: no wall-clock
// reads, no unseeded randomness, no hash- or iteration-order-dependent logic
// in deterministic code, and the EventFn/intern_label hot-path rules. Over
// the whole tree (include graph + call graph): no nondeterminism source
// reachable from a deterministic function through helpers (`taint`), no
// include against the module DAG (`layering`), no include cycle. Every rule
// has an inline escape hatch:
//
//   code();  // simty-lint: allow(rule-a, rule-b)   — this line
//   // simty-lint: allow(rule-a)                    — next code line
//   // simty-lint: allow-file(rule-a)               — whole file
//
// DESIGN.md §6.1 documents each rule.

#include <cstddef>
#include <string>
#include <vector>

namespace simty::lint {

/// One file handed to the checker: repo-relative path + full contents.
struct SourceFile {
  std::string path;  // '/'-separated, e.g. "src/sim/event_queue.cpp"
  std::string content;
};

/// One rule violation at a source location.
struct Finding {
  std::string file;   // path as given to the checker (repo-relative in CI)
  int line = 0;       // 1-based
  std::string rule;   // stable rule name, e.g. "wall-clock"
  std::string message;
  /// Evidence trail, outermost first: the call chain from the deterministic
  /// function to the source, or the include chain around a cycle. Empty for
  /// single-site findings.
  std::vector<std::string> chain;
};

struct Report {
  std::vector<Finding> findings;  // sorted by file, line, rule, message
  std::size_t files = 0;
  std::size_t functions = 0;
  std::size_t call_edges = 0;
  std::size_t include_edges = 0;
};

/// Stable names of every rule, for --list-rules.
const std::vector<std::string>& rule_names();

/// Checks a whole file set: each file is scanned once, the per-file rules
/// run on it (its path decides which apply; a .cpp also sees the unordered
/// members of its companion header in the set), then the taint, layering
/// and include-cycle passes run over the include and call graphs.
/// Order-insensitive.
Report lint_tree(const std::vector<SourceFile>& sources);

/// Renders a report as machine-readable JSON.
std::string to_json(const Report& report);

}  // namespace simty::lint
