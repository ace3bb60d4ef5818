#include "lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace simty::lint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parsed form of one `simty-lint:` directive found in a comment.
struct Directive {
  std::size_t line = 0;  // 0-based line the comment starts on
  std::vector<std::string> rules;
  bool file_scope = false;
};

void trim(std::string& s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) s.erase(s.begin());
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) s.pop_back();
}

/// Extracts `allow(...)` / `allow-file(...)` directives from comment text.
void parse_directives(std::string_view comment, std::size_t start_line,
                      std::vector<Directive>& out) {
  constexpr std::string_view tag = "simty-lint:";
  std::size_t pos = 0;
  while ((pos = comment.find(tag, pos)) != std::string_view::npos) {
    std::size_t p = pos + tag.size();
    while (p < comment.size() && std::isspace(static_cast<unsigned char>(comment[p])) != 0) ++p;
    bool file_scope = false;
    if (comment.substr(p, 10) == "allow-file") {
      file_scope = true;
      p += 10;
    } else if (comment.substr(p, 5) == "allow") {
      p += 5;
    } else {
      pos = p;
      continue;
    }
    while (p < comment.size() && std::isspace(static_cast<unsigned char>(comment[p])) != 0) ++p;
    if (p >= comment.size() || comment[p] != '(') {
      pos = p;
      continue;
    }
    const std::size_t close = comment.find(')', p);
    if (close == std::string_view::npos) break;
    Directive d;
    d.file_scope = file_scope;
    d.line = start_line + static_cast<std::size_t>(
                              std::count(comment.begin(), comment.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
    std::string list(comment.substr(p + 1, close - p - 1));
    std::size_t item = 0;
    while (item <= list.size()) {
      std::size_t comma = list.find(',', item);
      if (comma == std::string::npos) comma = list.size();
      std::string rule = list.substr(item, comma - item);
      trim(rule);
      if (!rule.empty()) d.rules.push_back(rule);
      item = comma + 1;
    }
    if (!d.rules.empty()) out.push_back(std::move(d));
    pos = close;
  }
}

}  // namespace

bool FileScan::allows(std::size_t line, std::string_view rule) const {
  const auto hit = [&](const std::vector<std::string>& v) {
    return std::find(v.begin(), v.end(), rule) != v.end();
  };
  return hit(file_allows) || (line < line_allows.size() && hit(line_allows[line]));
}

bool has_word(std::string_view code, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    // ':' to the left means this is the tail of a qualified name (foo::name
    // is still the word `name`, but std::hashish must not match `hash`).
    if (left_ok && right_ok) return true;
    pos += name.size();
  }
  return false;
}

FileScan scan_source(std::string_view content) {
  FileScan scan;
  std::vector<Directive> directives;

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string current_code;
  std::string current_comment;   // text of the comment being read
  std::size_t comment_start_line = 0;
  std::string raw_delim;         // delimiter of the raw string being read

  std::size_t line = 0;
  auto end_line = [&] {
    scan.code.push_back(current_code);
    current_code.clear();
    ++line;
  };
  auto end_comment = [&] {
    parse_directives(current_comment, comment_start_line, directives);
    current_comment.clear();
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        // Phase-2 line splicing happens before comment recognition: a `//`
        // comment whose last character is a backslash swallows the next
        // physical line too.
        if (i > 0 && content[i - 1] == '\\') {
          current_comment.push_back('\n');
          end_line();
          continue;
        }
        end_comment();
        state = State::kCode;
      } else if (state == State::kString || state == State::kChar) {
        state = State::kCode;  // unterminated literal: recover at newline
      } else if (state == State::kBlockComment) {
        current_comment.push_back('\n');
      }
      end_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_start_line = line;
          current_code.append("  ");
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_start_line = line;
          current_code.append("  ");
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" — only when R directly abuts the quote and
          // is not the tail of an identifier (operator"" etc. not handled).
          const bool raw = !current_code.empty() && current_code.back() == 'R' &&
                           (current_code.size() < 2 || !ident_char(current_code[current_code.size() - 2]));
          if (raw) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < content.size() && content[j] != '(' && content[j] != '\n') {
              raw_delim.push_back(content[j]);
              ++j;
            }
            state = State::kRawString;
            current_code.push_back('"');
            // blank the delimiter and opening paren
            for (std::size_t k = i + 1; k <= j && k < content.size(); ++k) current_code.push_back(' ');
            i = j;
          } else {
            state = State::kString;
            current_code.push_back('"');
          }
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not character literals.
          if (!current_code.empty() && ident_char(current_code.back())) {
            current_code.push_back('\'');
          } else {
            state = State::kChar;
            current_code.push_back('\'');
          }
        } else {
          current_code.push_back(c);
        }
        break;
      case State::kLineComment:
        current_comment.push_back(c);
        current_code.push_back(' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          end_comment();
          state = State::kCode;
          current_code.append("  ");
          ++i;
        } else {
          current_comment.push_back(c);
          current_code.push_back(' ');
        }
        break;
      case State::kString:
        if (c == '\\') {
          current_code.append("  ");
          ++i;
          if (next == '\n') end_line();  // line continuation inside literal
        } else if (c == '"') {
          state = State::kCode;
          current_code.push_back('"');
        } else {
          current_code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          current_code.append("  ");
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current_code.push_back('\'');
        } else {
          current_code.push_back(' ');
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (content.compare(i, close.size(), close) == 0) {
          for (std::size_t k = 0; k < close.size(); ++k) current_code.push_back(' ');
          i += close.size() - 1;
          state = State::kCode;
        } else {
          current_code.push_back(' ');
        }
        break;
      }
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) end_comment();
  end_line();  // final (possibly empty) line

  scan.line_allows.resize(scan.code.size());
  auto line_has_code = [&](std::size_t l) {
    const std::string& s = scan.code[l];
    return std::any_of(s.begin(), s.end(),
                       [](char ch) { return std::isspace(static_cast<unsigned char>(ch)) == 0; });
  };
  for (const Directive& d : directives) {
    if (d.file_scope) {
      scan.file_allows.insert(scan.file_allows.end(), d.rules.begin(), d.rules.end());
      continue;
    }
    std::size_t target = d.line;
    if (target < scan.code.size() && !line_has_code(target)) {
      // Comment-only line: the directive governs the next code line.
      std::size_t l = target + 1;
      while (l < scan.code.size() && !line_has_code(l)) ++l;
      if (l < scan.code.size()) target = l;
    }
    if (target < scan.line_allows.size()) {
      auto& allows = scan.line_allows[target];
      allows.insert(allows.end(), d.rules.begin(), d.rules.end());
    }
  }
  return scan;
}

}  // namespace simty::lint
