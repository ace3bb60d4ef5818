#include "trace/tracer.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::trace {

namespace {

std::string json_escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    const char ch = *p;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += str_format("\\u%04x", static_cast<unsigned char>(ch));
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kAlarm: return "alarm";
    case TraceCategory::kHw: return "hw";
    case TraceCategory::kNet: return "net";
    case TraceCategory::kExp: return "exp";
  }
  return "?";
}

const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kSpanBegin: return "span-begin";
    case TraceEventKind::kSpanEnd: return "span-end";
    case TraceEventKind::kInstant: return "instant";
    case TraceEventKind::kCounter: return "counter";
  }
  return "?";
}

void Tracer::span_begin(TimePoint when, TraceCategory category, const char* label,
                        std::int64_t arg) {
  ++open_spans_;
  events_.push_back(
      TraceEvent{when.us(), label, arg, TraceEventKind::kSpanBegin, category});
}

void Tracer::span_end(TimePoint when, TraceCategory category, const char* label,
                      std::int64_t arg) {
  SIMTY_CHECK_MSG(open_spans_ > 0, "Tracer::span_end without a matching begin");
  --open_spans_;
  events_.push_back(
      TraceEvent{when.us(), label, arg, TraceEventKind::kSpanEnd, category});
}

void Tracer::instant(TimePoint when, TraceCategory category, const char* label,
                     std::int64_t arg) {
  events_.push_back(
      TraceEvent{when.us(), label, arg, TraceEventKind::kInstant, category});
}

void Tracer::counter(TimePoint when, TraceCategory category, const char* label,
                     std::int64_t value) {
  events_.push_back(
      TraceEvent{when.us(), label, value, TraceEventKind::kCounter, category});
}

void Tracer::clear() {
  events_.clear();
  open_spans_ = 0;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    const std::string name = json_escape(e.label);
    const char* cat = to_string(e.category);
    const long long ts = static_cast<long long>(e.t_us);
    const long long arg = static_cast<long long>(e.arg);
    switch (e.kind) {
      case TraceEventKind::kSpanBegin:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\",\"ts\":%lld,"
            "\"pid\":0,\"tid\":0,\"args\":{\"arg\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
      case TraceEventKind::kSpanEnd:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"E\",\"ts\":%lld,"
            "\"pid\":0,\"tid\":0,\"args\":{\"arg\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
      case TraceEventKind::kInstant:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"I\",\"s\":\"t\","
            "\"ts\":%lld,\"pid\":0,\"tid\":0,\"args\":{\"arg\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
      case TraceEventKind::kCounter:
        out += str_format(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%lld,"
            "\"pid\":0,\"tid\":0,\"args\":{\"value\":%lld}}",
            name.c_str(), cat, ts, arg);
        break;
    }
  }
  out += "\n]}\n";
  return out;
}

void Tracer::save(snapshot::Writer& w) const {
  // Dedup labels by CONTENT in first-appearance order: two runs recording
  // the same event sequence save identical tables even though the label
  // pointers differ between processes (or interner states).
  std::map<std::string, std::uint32_t> ids;
  std::vector<const char*> table;
  std::vector<std::uint32_t> event_label(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto [it, inserted] =
        ids.emplace(events_[i].label, static_cast<std::uint32_t>(table.size()));
    if (inserted) table.push_back(events_[i].label);
    event_label[i] = it->second;
  }

  w.u64(table.size());
  for (const char* label : table) w.str(label);
  w.i64(open_spans_);
  w.u64(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    w.i64(e.t_us);
    w.u32(event_label[i]);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u8(static_cast<std::uint8_t>(e.category));
    w.i64(e.arg);
  }
}

void Tracer::restore(snapshot::SectionReader& s) {
  clear();
  restored_labels_.clear();
  const std::uint64_t label_count = s.u64();
  s.check_count(label_count, 9);
  restored_labels_.reserve(label_count);
  for (std::uint64_t i = 0; i < label_count; ++i) {
    restored_labels_.push_back(std::make_unique<std::string>(s.str()));
  }
  const std::int64_t open_spans = s.i64();
  SIMTY_CHECK_MSG(open_spans >= 0, "Tracer::restore: negative open span count");
  const std::uint64_t event_count = s.u64();
  // Per event: i64(9) + u32(5) + 2 u8(4) + i64(9).
  s.check_count(event_count, 27);
  events_.reserve(event_count);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    TraceEvent e;
    e.t_us = s.i64();
    const std::uint32_t label = s.u32();
    SIMTY_CHECK_MSG(label < restored_labels_.size(),
                    "Tracer::restore: label index out of range");
    e.label = restored_labels_[label]->c_str();
    const std::uint8_t kind = s.u8();
    const std::uint8_t category = s.u8();
    SIMTY_CHECK_MSG(kind <= static_cast<std::uint8_t>(TraceEventKind::kCounter),
                    "Tracer::restore: bad event kind");
    SIMTY_CHECK_MSG(category <= static_cast<std::uint8_t>(TraceCategory::kExp),
                    "Tracer::restore: bad event category");
    e.kind = static_cast<TraceEventKind>(kind);
    e.category = static_cast<TraceCategory>(category);
    e.arg = s.i64();
    events_.push_back(e);
  }
  open_spans_ = open_spans;
}

void Tracer::save_chrome_json(const std::string& path) const {
  snapshot::write_file(path, chrome_json());
}

void Tracer::save_file(const std::string& path) const {
  snapshot::Writer w;
  w.begin_section(kSection, kFileVersion);
  save(w);
  w.end_section();
  snapshot::write_file(path, w.finish());
}

TraceScope::TraceScope(Tracer* tracer) : previous_(detail::current_tracer) {
  detail::current_tracer = tracer;
}

TraceScope::~TraceScope() { detail::current_tracer = previous_; }

namespace {

std::string format_event(const std::vector<TraceEvent>& events, std::size_t i) {
  const TraceEvent& e = events[i];
  return str_format("event %zu: t=%lldus %s/%s \"%s\" arg=%lld", i,
                    static_cast<long long>(e.t_us), to_string(e.category),
                    to_string(e.kind), e.label, static_cast<long long>(e.arg));
}

}  // namespace

TraceDiff diff_traces(const Tracer& a, const Tracer& b) {
  const std::vector<TraceEvent>& ea = a.snapshot();
  const std::vector<TraceEvent>& eb = b.snapshot();
  TraceDiff d;
  const std::size_t common = std::min(ea.size(), eb.size());
  for (std::size_t i = 0; i < common; ++i) {
    const bool same = ea[i].t_us == eb[i].t_us && ea[i].arg == eb[i].arg &&
                      ea[i].kind == eb[i].kind && ea[i].category == eb[i].category &&
                      std::string_view(ea[i].label) == std::string_view(eb[i].label);
    if (!same) {
      d.first_divergence = i;
      d.summary = str_format("traces diverge at event %zu:\n  a: %s\n  b: %s", i,
                             format_event(ea, i).c_str(), format_event(eb, i).c_str());
      return d;
    }
  }
  if (ea.size() != eb.size()) {
    const std::vector<TraceEvent>& longer = ea.size() > eb.size() ? ea : eb;
    d.first_divergence = common;
    d.summary = str_format(
        "traces share %zu events, then %s has %zu extra:\n  first extra: %s",
        common, ea.size() > eb.size() ? "a" : "b", longer.size() - common,
        format_event(longer, common).c_str());
    return d;
  }
  d.equal = true;
  d.summary = str_format("traces identical (%zu events)", ea.size());
  return d;
}

}  // namespace simty::trace
