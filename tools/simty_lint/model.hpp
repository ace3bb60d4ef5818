#pragma once
// Internal interfaces of simty_lint: the nondeterminism source table, the
// path scopes, the per-file model built by the structural parser
// (model.cpp), and the whole-tree Graph the taint and layering passes read.
//
// One FileModel per SourceFile: the blanked source (comments/literals
// spaced out by the lexer, preprocessor lines blanked on top of that so
// macro bodies can't unbalance the brace matcher), its direct includes, and
// every function definition found by the heuristic scope parser with the
// calls and nondeterminism sources inside it.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"

namespace simty::lint {

// ---------------------------------------------------------------------------
// Scopes and sources
// ---------------------------------------------------------------------------

/// Code that must be a pure function of the seed: the discrete-event core,
/// the alarm/policy layer, the experiment runner, the run tracer, the fleet
/// sampler/aggregator, and the model layers they simulate through
/// (net/hw/power/usage/metrics all execute inside the event loop).
/// snapshot (checkpoint bytes must not depend on when they were written)
/// and serve (cached results must equal freshly computed ones) extend the
/// same contract across process boundaries. The per-file source rules and
/// the taint pass both read this list.
inline const std::vector<std::string> kDeterministicPrefixes = {
    "src/sim",   "src/alarm", "src/exp",     "src/trace",    "src/fleet", "src/net",
    "src/hw",    "src/power", "src/usage",   "src/metrics",  "src/snapshot",
    "src/serve"};

/// The event hot path: EventFn instead of std::function, interned labels
/// instead of std::string, arena-backed storage instead of owning std::
/// containers.
inline constexpr std::string_view kHotPathPrefix = "src/sim";

/// True if `path` is `prefix` or lies under it; a prefix matches at a '/',
/// '.', or end-of-string boundary ("src/trace/tracer" claims tracer.hpp).
bool under_prefix(std::string_view path, std::string_view prefix);
bool under_any(std::string_view path, const std::vector<std::string>& prefixes);

/// Where a source name has to appear for it to count.
enum class Guard {
  kWord,        // anywhere: the name is unambiguous (`steady_clock`)
  kCall,        // a non-member call: `clock()` but not `sim.clock()`
  kQualified,   // spelled with the qualifier in `name` (`std::hash`, `::time`)
  kIntptrCast,  // `reinterpret_cast<...intptr...>`
};

/// One nondeterminism source. `rule` names the per-file rule that flags it
/// in deterministic code ("taint" when only the taint pass seeds from it).
struct Source {
  std::string_view name;
  std::string_view rule;
  Guard guard;
};

/// The source table both the per-file rules and the taint seeds read.
const std::vector<Source>& sources();

/// The source whose name starts at `pos` in blanked `text` (`pos` must start
/// an identifier) and whose guard holds there, or nullptr.
const Source* source_at(std::string_view text, std::size_t pos);

// ---------------------------------------------------------------------------
// Per-file model
// ---------------------------------------------------------------------------

/// A `#include "..."` with the spelling as written (quoted includes only;
/// <system> includes carry no layering or taint information).
struct Include {
  std::string spelled;
  int line = 0;
  bool layering_allowed = false;  // allow(layering) on the include line
};

/// A call site `name(` inside a function body. `name` keeps an explicit
/// qualifier when written (`detail::now_ms`), unqualified otherwise.
struct Call {
  std::string name;
  int line = 0;
};

/// A nondeterminism source appearing inside a function body.
struct Seed {
  std::string what;       // the source's table name, e.g. "steady_clock"
  std::string_view rule;  // the source's rule, e.g. "wall-clock"
  int line = 0;
  bool allowed = false;  // allow(taint) on the seed line
};

/// A parsed function definition (has a body in this file).
struct Function {
  std::string name;        // unqualified: "submit"
  std::string qualified;   // "ThreadPool::submit" or "submit"
  int line = 0;
  std::size_t body_begin = 0;  // offset one past '{' in joined text
  std::size_t body_end = 0;    // offset of the matching '}'
  bool taint_allowed = false;  // allow(taint) on the definition head
  std::vector<Call> calls;
  std::vector<Seed> seeds;
};

struct FileModel {
  std::string path;
  /// Blanked source joined with '\n' (preprocessor lines also blanked).
  std::string joined;
  /// Byte offset of each line's start in `joined` (1-based line -> index 0).
  std::vector<std::size_t> line_start;
  std::vector<Include> includes;
  std::vector<Function> functions;
};

/// Parses one scanned file. Pure function of (path, content, scan).
FileModel build_model(const std::string& path, std::string_view content, const FileScan& scan);

/// 1-based line of `offset` in `model.joined`.
int line_of(const FileModel& model, std::size_t offset);

/// Runs the per-file rules on one scanned file. `extra_unordered` names
/// unordered containers declared elsewhere (the companion header).
std::vector<Finding> lint_file(std::string_view rel_path, std::string_view content,
                               const FileScan& scan,
                               const std::vector<std::string>& extra_unordered);

/// Unordered-container names declared in a scanned file.
std::vector<std::string> unordered_names_in(const FileScan& scan);

// ---------------------------------------------------------------------------
// Whole-tree passes
// ---------------------------------------------------------------------------

struct Graph {
  std::vector<FileModel> models;  // sorted by path
  /// includes[i][k] — index of the file models[i].includes[k] resolves to,
  /// or -1 when the spelling names nothing in the set (system or generated
  /// headers).
  std::vector<std::vector<int>> includes;
  /// reach[i] — sorted indices of every file transitively included by i,
  /// plus the companion .cpp of every reachable header (a definition in
  /// foo.cpp is callable wherever foo.hpp is visible). Includes i itself.
  std::vector<std::vector<int>> reach;
};

bool reaches(const Graph& g, int from, int to);

void run_taint(const Graph& g, Report& report);
void run_layering(const Graph& g, Report& report);

}  // namespace simty::lint
