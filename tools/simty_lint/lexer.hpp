#pragma once
// Lightweight C++ source scanner for simty_lint.
//
// Produces, per physical line, the source text with comments, string
// literals, and character literals blanked to spaces (so rule matching never
// fires inside a literal), and the `simty-lint:` allow directives extracted
// from comments. This is deliberately not a real C++ front end: it only has
// to be right about lexical structure (//, /* */, "...", '...', R"(...)",
// backslash-continued // comments), which is enough for the token-level
// rules and the whole-tree structural passes.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace simty::lint {

/// Result of scanning one source file.
struct FileScan {
  /// Source lines with comment/literal contents replaced by spaces.
  std::vector<std::string> code;
  /// Per-line allow()'d rule names (parallel to `code`).
  std::vector<std::vector<std::string>> line_allows;
  /// Rules allow-file()'d anywhere in the file.
  std::vector<std::string> file_allows;

  /// True if `rule` is waived on 0-based `line` or for the whole file.
  bool allows(std::size_t line, std::string_view rule) const;
};

/// Scans `content` into blanked code lines plus `simty-lint:` allow
/// directives. A directive in a trailing comment applies to its own line; a
/// directive on a comment-only line applies to the next line that carries
/// code.
FileScan scan_source(std::string_view content);

/// True if `name` appears in `code` delimited by non-identifier characters.
bool has_word(std::string_view code, std::string_view name);

}  // namespace simty::lint
