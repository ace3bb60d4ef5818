#include "lint.hpp"

namespace simty::lint {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string to_json(const Report& report) {
  std::string out = "{\n  \"version\": 2,\n  \"files_scanned\": ";
  out += std::to_string(report.files);
  out += ",\n  \"functions\": ";
  out += std::to_string(report.functions);
  out += ",\n  \"call_edges\": ";
  out += std::to_string(report.call_edges);
  out += ",\n  \"include_edges\": ";
  out += std::to_string(report.include_edges);
  out += ",\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"";
    append_escaped(out, f.file);
    out += "\", \"line\": ";
    out += std::to_string(f.line);
    out += ", \"rule\": \"";
    append_escaped(out, f.rule);
    out += "\", \"message\": \"";
    append_escaped(out, f.message);
    out += "\", \"chain\": [";
    for (std::size_t c = 0; c < f.chain.size(); ++c) {
      out += c == 0 ? "\"" : ", \"";
      append_escaped(out, f.chain[c]);
      out += '"';
    }
    out += "]}";
  }
  out += report.findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace simty::lint
