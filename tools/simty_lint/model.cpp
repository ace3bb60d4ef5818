// Structural parser: scanned source -> FileModel (see model.hpp).
//
// Built on the lexer's blanked lines (comments/strings blanked), then:
// preprocessor lines are blanked too (a do{}while(0) macro body would
// otherwise unbalance the brace matcher), braces are matched in one pass,
// and every '{' is classified from its "head" — the text since the last
// top-level ';', '{' or '}' — as namespace / class / function / block.
// Function bodies are then scanned for calls and nondeterminism sources.
// This is heuristic by design; see DESIGN.md §6.1 for the contract (and the
// fixture tests for what it is pinned to handle).

#include "model.hpp"

#include <algorithm>
#include <cctype>

namespace simty::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_keyword(std::string_view w) {
  static const std::vector<std::string_view> kw = {
      "if",       "for",     "while",    "switch",     "catch",        "return",
      "sizeof",   "alignof", "decltype", "noexcept",   "throw",        "new",
      "delete",   "co_await","co_return","co_yield",   "static_assert","requires",
      "alignas",  "typeid",  "assert",   "SIMTY_REQUIRES", "SIMTY_EXCLUDES"};
  return std::find(kw.begin(), kw.end(), w) != kw.end();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

/// Reads the `a::b::c` identifier chain ending just before `end` (exclusive),
/// skipping trailing whitespace. Returns empty if none.
std::string chain_before(std::string_view text, std::size_t end) {
  std::size_t i = end;
  while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) --i;
  const std::size_t stop = i;
  while (i > 0) {
    if (ident_char(text[i - 1])) {
      --i;
    } else if (i >= 2 && text[i - 1] == ':' && text[i - 2] == ':') {
      i -= 2;
    } else if (text[i - 1] == '~') {  // destructor name
      --i;
      break;
    } else {
      break;
    }
  }
  if (i == stop) return {};
  return std::string(text.substr(i, stop - i));
}

std::string last_component(std::string_view qualified) {
  const std::size_t pos = qualified.rfind("::");
  return std::string(pos == std::string_view::npos ? qualified : qualified.substr(pos + 2));
}

/// Offset of the ')' matching the '(' at `open`, or npos.
std::size_t match_paren(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string_view::npos;
}

struct HeadParse {
  bool is_function = false;
  std::string qualified;
  std::size_t name_offset = 0;  // relative to the head
};

/// True if `tail` (the text between a candidate parameter list's ')' and the
/// '{') is made only of definition qualifiers: const, noexcept[(..)],
/// override, final, mutable, ref-qualifiers, try, a trailing return type, a
/// requires-clause, or SIMTY_REQUIRES/SIMTY_EXCLUDES annotations.
bool tail_ok(std::string_view tail) {
  std::size_t i = 0;
  while (i < tail.size()) {
    const char c = tail[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '&') {  // ref-qualifier & / &&
      ++i;
      continue;
    }
    if (tail.compare(i, 2, "->") == 0) return true;  // trailing return: rest is the type
    if (!ident_char(c)) return false;
    std::size_t j = i;
    while (j < tail.size() && ident_char(tail[j])) ++j;
    const std::string_view word = tail.substr(i, j - i);
    if (word == "requires") return true;  // constraint: rest is the clause
    if (word == "const" || word == "override" || word == "final" || word == "mutable" ||
        word == "try" || word == "volatile") {
      i = j;
      continue;
    }
    if (word == "noexcept" || word == "throw" || word == "SIMTY_REQUIRES" ||
        word == "SIMTY_EXCLUDES") {
      i = j;
      while (i < tail.size() && std::isspace(static_cast<unsigned char>(tail[i]))) ++i;
      if (i < tail.size() && tail[i] == '(') {
        const std::size_t close = match_paren(tail, i);
        if (close == std::string_view::npos) return false;
        i = close + 1;
      }
      continue;
    }
    return false;
  }
  return true;
}

/// Decides whether `head` (text between the previous statement boundary and
/// a '{') is a function definition, and if so which one.
HeadParse parse_head(std::string_view head) {
  HeadParse out;
  // A depth-0 ':' that is not '::' starts a constructor init list (class
  // heads were already classified away); name-finding looks left of it.
  std::size_t limit = head.size();
  int depth = 0;
  for (std::size_t i = 0; i < head.size(); ++i) {
    const char c = head[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth == 0 && c == ':' &&
        (i + 1 >= head.size() || head[i + 1] != ':') && (i == 0 || head[i - 1] != ':')) {
      limit = i;  // ctor init list
      break;
    }
  }
  const std::string_view h = head.substr(0, limit);

  // Walk depth-0 '(' from last to first; the parameter list is the last one
  // preceded by a plain identifier chain (skipping noexcept(...) and
  // annotation parens via the keyword list).
  std::vector<std::size_t> opens;
  depth = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] == '(') {
      if (depth == 0) opens.push_back(i);
      ++depth;
    }
    if (h[i] == ')') --depth;
  }
  for (auto it = opens.rbegin(); it != opens.rend(); ++it) {
    const std::size_t open = *it;
    std::string name = chain_before(h, open);
    std::size_t name_off;
    if (name.empty()) {
      // operator()/operator==/...: identifier chain reads empty because the
      // name ends in symbols; look for the `operator` keyword just before.
      std::size_t k = open;
      while (k > 0 && !ident_char(h[k - 1])) --k;
      const std::string word = chain_before(h, k);
      if (last_component(word) != "operator") continue;
      name = word + std::string(trim(h.substr(k, open - k)));
      name_off = k - word.size();
    } else {
      name_off = open;
      while (name_off > 0 && std::isspace(static_cast<unsigned char>(h[name_off - 1]))) --name_off;
      name_off -= name.size();
      if (is_keyword(last_component(name))) continue;
    }
    const std::size_t close = match_paren(h, open);
    if (close == std::string_view::npos) continue;
    if (!tail_ok(head.substr(close + 1, limit - close - 1))) continue;
    // `= foo(...)` / `, foo(...)` heads are initializers, not definitions.
    std::size_t p = name_off;
    while (p > 0 && std::isspace(static_cast<unsigned char>(h[p - 1]))) --p;
    if (p > 0 && (h[p - 1] == '=' || h[p - 1] == ',')) continue;
    out.is_function = true;
    out.qualified = name;
    out.name_offset = name_off;
    return out;
  }
  return out;
}

bool head_is_class(std::string_view head) {
  // Class-like iff a class keyword is present and the head has no parameter
  // list — `struct tm` as a function's return/param type never reaches here
  // paren-free, and a class head with parens (alignas) is rare enough to
  // punt on.
  if (head.find('(') != std::string_view::npos) return false;
  return has_word(head, "class") || has_word(head, "struct") || has_word(head, "union") ||
         has_word(head, "enum");
}

std::string class_name_of(std::string_view head) {
  for (const char* kw : {"class", "struct", "union", "enum"}) {
    std::size_t pos = head.find(kw);
    while (pos != std::string_view::npos) {
      const bool l = pos == 0 || !ident_char(head[pos - 1]);
      const std::size_t e = pos + std::string_view(kw).size();
      if (l && (e >= head.size() || !ident_char(head[e]))) {
        std::size_t i = e;
        // skip attributes / "final" is after the name; take first identifier
        while (i < head.size()) {
          while (i < head.size() && !ident_char(head[i])) ++i;
          std::size_t j = i;
          while (j < head.size() && ident_char(head[j])) ++j;
          const std::string_view w = head.substr(i, j - i);
          if (w == "alignas" || w == "class") {  // "enum class"
            i = j;
            continue;
          }
          return std::string(w);
        }
        return {};
      }
      pos = head.find(kw, pos + 1);
    }
  }
  return {};
}

}  // namespace

int line_of(const FileModel& model, std::size_t offset) {
  auto it = std::upper_bound(model.line_start.begin(), model.line_start.end(), offset);
  return static_cast<int>(it - model.line_start.begin());
}

namespace {

/// Fills calls and seeds for one function body (offsets into m.joined).
void scan_body(const FileModel& m, const FileScan& scan, Function& fn) {
  const std::string_view text = m.joined;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (!ident_char(text[i]) || (i > 0 && ident_char(text[i - 1]))) continue;
    // `i` starts an identifier word.
    std::size_t j = i;
    while (j < text.size() && ident_char(text[j])) ++j;
    const std::string_view word = text.substr(i, j - i);
    const int line = line_of(m, i);

    if (const Source* src = source_at(text, i)) {
      fn.seeds.push_back({std::string(src->name), src->rule, line,
                          scan.allows(static_cast<std::size_t>(line) - 1, "taint")});
      i = j - 1;
      continue;
    }

    std::size_t k = j;
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k]))) ++k;
    if (k < text.size() && text[k] == '(' && !is_keyword(word)) {
      // Extend left through :: qualifiers so `detail::now_ms(` records the
      // qualified name; `obj.method(` records just `method`.
      const std::string full = chain_before(text, j);
      fn.calls.push_back({full.empty() ? std::string(word) : full, line});
    }
    i = j - 1;
  }
}

}  // namespace

FileModel build_model(const std::string& path, std::string_view content, const FileScan& scan) {
  FileModel m;
  m.path = path;

  // Includes come from the raw lines (the lexer blanks the "..." spelling).
  {
    std::size_t line_begin = 0;
    int line_no = 0;
    while (line_begin <= content.size()) {
      std::size_t line_end = content.find('\n', line_begin);
      if (line_end == std::string_view::npos) line_end = content.size();
      std::string_view t = trim(content.substr(line_begin, line_end - line_begin));
      ++line_no;
      if (!t.empty() && t.front() == '#') {
        t.remove_prefix(1);
        t = trim(t);
        if (t.rfind("include", 0) == 0) {
          t.remove_prefix(7);
          t = trim(t);
          if (!t.empty() && t.front() == '"') {
            const std::size_t close = t.find('"', 1);
            if (close != std::string_view::npos) {
              m.includes.push_back(
                  {std::string(t.substr(1, close - 1)), line_no,
                   scan.allows(static_cast<std::size_t>(line_no) - 1, "layering")});
            }
          }
        }
      }
      if (line_end == content.size()) break;
      line_begin = line_end + 1;
    }
  }

  // Joined blanked text, with preprocessor lines (and their backslash
  // continuations) blanked so macro-body braces never reach the matcher.
  {
    bool continued = false;
    for (std::string line : scan.code) {
      const std::size_t first = line.find_first_not_of(" \t\r\f\v");
      const bool blank = continued || (first != std::string::npos && line[first] == '#');
      continued = blank && !line.empty() && line.back() == '\\';
      if (blank) std::fill(line.begin(), line.end(), ' ');
      m.line_start.push_back(m.joined.size());
      m.joined += line;
      m.joined += '\n';
    }
  }

  const std::string_view text = m.joined;

  // Brace matching in one pass.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (open, close), sorted by open
  {
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '{') stack.push_back(i);
      if (text[i] == '}' && !stack.empty()) {
        pairs.emplace_back(stack.back(), i);
        stack.pop_back();
      }
    }
    std::sort(pairs.begin(), pairs.end());
  }
  const auto close_of = [&](std::size_t open) -> std::size_t {
    const auto it = std::lower_bound(pairs.begin(), pairs.end(), std::pair{open, std::size_t{0}});
    return it == pairs.end() || it->first != open ? text.size() : it->second;
  };

  // Scope walk: classify every '{'.
  enum class Kind { kNs, kClass, kFunc, kBlock, kOther };
  struct Scope {
    Kind kind;
    std::string class_name;
  };
  std::vector<Scope> stack;
  std::size_t head_start = 0;
  int paren_depth = 0;
  const auto in_function = [&] {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Kind::kFunc || it->kind == Kind::kBlock) return true;
      if (it->kind == Kind::kClass || it->kind == Kind::kNs) return false;
    }
    return false;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') ++paren_depth;
    if (c == ')') --paren_depth;
    if (c == '{') {
      Scope s{Kind::kOther, {}};
      if (in_function()) {
        s.kind = Kind::kBlock;
      } else {
        const std::string_view head = trim(text.substr(head_start, i - head_start));
        std::string enclosing;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->kind == Kind::kClass) {
            enclosing = it->class_name;
            break;
          }
        }
        if (has_word(head, "namespace")) {
          s.kind = Kind::kNs;
        } else if (head_is_class(head)) {
          s.kind = Kind::kClass;
          s.class_name = class_name_of(head);
        } else if (const HeadParse hp = parse_head(head); hp.is_function) {
          Function fn;
          fn.qualified = hp.qualified;
          fn.name = last_component(hp.qualified);
          if (!fn.name.empty() && fn.name.front() == '~') fn.name.erase(fn.name.begin());
          // `head` is a trimmed view into `text`, so pointer arithmetic
          // recovers the absolute offset of the function name.
          const std::size_t name_abs =
              static_cast<std::size_t>(head.data() - text.data()) + hp.name_offset;
          fn.line = line_of(m, name_abs);
          fn.body_begin = i + 1;
          fn.body_end = close_of(i);
          // allow(taint) anywhere on the definition head or the '{' line.
          for (int ln = line_of(m, head_start); ln <= line_of(m, i); ++ln) {
            if (scan.allows(static_cast<std::size_t>(ln) - 1, "taint")) fn.taint_allowed = true;
          }
          if (!enclosing.empty() && fn.qualified.find("::") == std::string::npos) {
            fn.qualified = enclosing + "::" + fn.qualified;
          }
          s.kind = Kind::kFunc;
          m.functions.push_back(std::move(fn));
        }
      }
      stack.push_back(std::move(s));
      head_start = i + 1;
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      head_start = i + 1;
      continue;
    }
    if (c == ';' && paren_depth == 0) head_start = i + 1;
    // Access specifiers are statement boundaries too — otherwise a member
    // defined right after `public:` never parses (the ':' would read as a
    // constructor init list).
    if (c == ':' && paren_depth == 0) {
      const std::string_view head = trim(text.substr(head_start, i - head_start));
      if (head == "public" || head == "private" || head == "protected") head_start = i + 1;
    }
  }

  for (auto& fn : m.functions) scan_body(m, scan, fn);
  return m;
}

}  // namespace simty::lint
