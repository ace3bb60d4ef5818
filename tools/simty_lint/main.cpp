// simty_lint — SIMTY determinism checker (see lint.hpp for the rule set).
//
// Usage:
//   simty_lint [--root DIR] [--json FILE] [--list-rules] PATH...
//
// PATHs are files or directories, resolved relative to --root (default: the
// current directory); paths are recorded relative to --root so the path
// scopes and the module table match. Directories are walked recursively for
// .hpp/.h/.cpp/.cc files; build trees and dot-directories are skipped. The
// whole file set is checked at once (the taint and layering passes need the
// include and call graphs), so pass tree roots, not single files. Exit
// status: 0 clean, 1 findings, 2 usage or I/O error. Registered as the
// `simty_lint` ctest over src/, bench/, examples/, and tools/.

#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' || name.rfind("build", 0) == 0;
}

std::string rel_to(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return (ec ? p : rel).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& r : simty::lint::rule_names()) std::printf("%s\n", r.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: simty_lint [--root DIR] [--json FILE] [--list-rules] PATH...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "simty_lint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "simty_lint: no paths given (try --help)\n");
    return 2;
  }

  std::vector<fs::path> files;
  for (const auto& t : targets) {
    const fs::path p = fs::path(t).is_absolute() ? fs::path(t) : root / t;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p, fs::directory_options::skip_permission_denied, ec);
      if (ec) {
        std::fprintf(stderr, "simty_lint: cannot walk %s: %s\n", p.c_str(), ec.message().c_str());
        return 2;
      }
      for (auto end = fs::recursive_directory_iterator(); it != end; ++it) {
        if (it->is_directory() && skip_dir(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable(it->path())) files.push_back(it->path());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "simty_lint: no such file or directory: %s\n", p.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<simty::lint::SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "simty_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back({rel_to(root, file), buf.str()});
  }
  const simty::lint::Report report = simty::lint::lint_tree(sources);

  for (const auto& f : report.findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(), f.message.c_str());
    for (const auto& step : f.chain) std::printf("    %s\n", step.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "simty_lint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << simty::lint::to_json(report);
  }
  std::printf("simty_lint: %zu files, %zu functions, %zu call edges, %zu include edges: %zu finding(s)\n",
              report.files, report.functions, report.call_edges, report.include_edges,
              report.findings.size());
  return report.findings.empty() ? 0 : 1;
}
