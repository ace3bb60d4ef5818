// Whole-tree run: scan every file once, run the per-file rules, parse each
// scan into a FileModel, resolve the include graph and its closure, then
// run the taint and layering passes over the shared Graph.

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <map>
#include <tuple>

#include "model.hpp"

namespace simty::lint {

bool reaches(const Graph& g, int from, int to) {
  const auto& r = g.reach[static_cast<std::size_t>(from)];
  return std::binary_search(r.begin(), r.end(), to);
}

namespace {

/// Collapses "." and ".." components of a '/'-separated path.
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    const std::string part = path.substr(start, end - start);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (end == path.size()) break;
    start = end + 1;
  }
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

std::string dir_of(const std::string& path) {
  const std::size_t pos = path.rfind('/');
  return pos == std::string::npos ? std::string() : path.substr(0, pos);
}

/// Resolves one include spelling against the file set: relative to the
/// includer's directory first, then as-is (repo-relative), then rooted at
/// src/ (how src/ headers are spelled).
int resolve(const std::map<std::string, int>& by_path, const std::string& includer,
            const std::string& spelled) {
  const std::string candidates[] = {
      normalize(dir_of(includer) + "/" + spelled),
      normalize(spelled),
      normalize("src/" + spelled),
  };
  for (const auto& c : candidates) {
    const auto it = by_path.find(c);
    if (it != by_path.end()) return it->second;
  }
  return -1;
}

/// The path with its extension swapped for each of `exts`, if it has one of
/// `from`; empty otherwise.
std::vector<std::string> companions(const std::string& path,
                                    std::initializer_list<const char*> from,
                                    std::initializer_list<const char*> exts) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return {};
  const std::string ext = path.substr(dot);
  if (std::none_of(from.begin(), from.end(), [&](const char* e) { return ext == e; })) return {};
  std::vector<std::string> out;
  for (const char* e : exts) out.push_back(path.substr(0, dot) + e);
  return out;
}

}  // namespace

Report lint_tree(const std::vector<SourceFile>& sources) {
  // Deterministic output regardless of input order.
  std::vector<const SourceFile*> files;
  for (const auto& src : sources) files.push_back(&src);
  std::sort(files.begin(), files.end(),
            [](const SourceFile* a, const SourceFile* b) { return a->path < b->path; });
  std::map<std::string, int> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) by_path[files[i]->path] = static_cast<int>(i);

  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const SourceFile* f : files) scans.push_back(scan_source(f->content));

  Report report;
  Graph g;
  for (std::size_t i = 0; i < files.size(); ++i) {
    // A .cpp's unordered members are declared in its companion header;
    // carry those names over so iteration in the .cpp is still caught.
    std::vector<std::string> extra;
    for (const auto& header : companions(files[i]->path, {".cpp", ".cc"}, {".hpp", ".h"})) {
      const auto it = by_path.find(header);
      if (it == by_path.end()) continue;
      const auto names = unordered_names_in(scans[static_cast<std::size_t>(it->second)]);
      extra.insert(extra.end(), names.begin(), names.end());
    }
    auto found = lint_file(files[i]->path, files[i]->content, scans[i], extra);
    std::move(found.begin(), found.end(), std::back_inserter(report.findings));
    g.models.push_back(build_model(files[i]->path, files[i]->content, scans[i]));
  }

  g.includes.resize(g.models.size());
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    for (const auto& inc : g.models[i].includes) {
      const int t = resolve(by_path, g.models[i].path, inc.spelled);
      g.includes[i].push_back(t);
      if (t >= 0) ++report.include_edges;
    }
    report.functions += g.models[i].functions.size();
  }

  // Transitive include closure, then companion expansion: once foo.hpp is
  // reachable its definitions in foo.cpp are callable, so the taint pass
  // must consider them too (without treating that as an include edge).
  g.reach.resize(g.models.size());
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    std::vector<int> stack = {static_cast<int>(i)};
    std::vector<bool> seen(g.models.size(), false);
    seen[i] = true;
    while (!stack.empty()) {
      const int f = stack.back();
      stack.pop_back();
      for (const int t : g.includes[static_cast<std::size_t>(f)]) {
        if (t >= 0 && !seen[static_cast<std::size_t>(t)]) {
          seen[static_cast<std::size_t>(t)] = true;
          stack.push_back(t);
        }
      }
    }
    for (std::size_t f = 0; f < g.models.size(); ++f) {
      if (!seen[f]) continue;
      for (const auto& cpp : companions(g.models[f].path, {".hpp", ".h"}, {".cpp"})) {
        const auto it = by_path.find(cpp);
        if (it != by_path.end()) seen[static_cast<std::size_t>(it->second)] = true;
      }
    }
    for (std::size_t f = 0; f < g.models.size(); ++f) {
      if (seen[f]) g.reach[i].push_back(static_cast<int>(f));
    }
  }

  report.files = g.models.size();
  run_taint(g, report);
  run_layering(g, report);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return report;
}

}  // namespace simty::lint
