#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace simty::trace {
namespace {

TimePoint at_us(std::int64_t us) { return TimePoint::from_us(us); }

TEST(Tracer, RecordsAllEventKindsInOrder) {
  Tracer t;
  t.span_begin(at_us(10), TraceCategory::kSim, "fire", 2);
  t.instant(at_us(11), TraceCategory::kAlarm, "batch-join", 3);
  t.counter(at_us(12), TraceCategory::kHw, "cpu-locks", 1);
  t.span_end(at_us(13), TraceCategory::kSim, "fire", 2);

  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSpanBegin);
  EXPECT_EQ(events[0].t_us, 10);
  EXPECT_STREQ(events[0].label, "fire");
  EXPECT_EQ(events[1].kind, TraceEventKind::kInstant);
  EXPECT_EQ(events[1].category, TraceCategory::kAlarm);
  EXPECT_EQ(events[2].kind, TraceEventKind::kCounter);
  EXPECT_EQ(events[2].arg, 1);
  EXPECT_EQ(events[3].kind, TraceEventKind::kSpanEnd);
  EXPECT_EQ(t.size(), 4u);
}

TEST(Tracer, SpanNestingIsTrackedAndUnderflowThrows) {
  Tracer t;
  EXPECT_EQ(t.open_spans(), 0);
  t.span_begin(at_us(0), TraceCategory::kSim, "outer");
  t.span_begin(at_us(1), TraceCategory::kSim, "inner");
  EXPECT_EQ(t.open_spans(), 2);
  t.span_end(at_us(2), TraceCategory::kSim, "inner");
  t.span_end(at_us(3), TraceCategory::kSim, "outer");
  EXPECT_EQ(t.open_spans(), 0);
  EXPECT_THROW(t.span_end(at_us(4), TraceCategory::kSim, "outer"),
               std::logic_error);
}

TEST(Tracer, StorageGrowsWithoutDroppingEvents) {
  Tracer t;
  const std::size_t n = 100000;  // many doublings of the event vector
  for (std::size_t i = 0; i < n; ++i) {
    t.instant(at_us(static_cast<std::int64_t>(i)), TraceCategory::kSim, "tick",
              static_cast<std::int64_t>(i));
  }
  ASSERT_EQ(t.size(), n);
  const std::vector<TraceEvent>& events = t.snapshot();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(events[i].arg, static_cast<std::int64_t>(i));
  }
}

TEST(Tracer, ClearRetainsStorageDropsEvents) {
  Tracer t;
  for (int i = 0; i < 1000; ++i) t.instant(at_us(i), TraceCategory::kSim, "tick", i);
  t.span_begin(at_us(1000), TraceCategory::kSim, "open");
  const TraceEvent* storage = t.snapshot().data();
  const std::size_t capacity = t.snapshot().capacity();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.open_spans(), 0);
  // Re-recording up to the high-water mark reuses the same buffer: a
  // reused tracer records allocation-free.
  for (int i = 0; i < 1001; ++i) t.instant(at_us(i), TraceCategory::kSim, "tick", i);
  EXPECT_EQ(t.size(), 1001u);
  EXPECT_EQ(t.snapshot().data(), storage);
  EXPECT_EQ(t.snapshot().capacity(), capacity);
}

TEST(Tracer, MacrosAreNoOpsWithoutAnInstalledTracer) {
  ASSERT_EQ(current(), nullptr);
  // Must not crash or record anywhere.
  SIMTY_TRACE_SPAN_BEGIN(at_us(0), TraceCategory::kSim, "x", 0);
  SIMTY_TRACE_SPAN_END(at_us(1), TraceCategory::kSim, "x", 0);
  SIMTY_TRACE_INSTANT(at_us(2), TraceCategory::kSim, "x", 0);
  SIMTY_TRACE_COUNTER(at_us(3), TraceCategory::kSim, "x", 0);
}

TEST(Tracer, TraceScopeInstallsAndRestores) {
  Tracer outer_t, inner_t;
  ASSERT_EQ(current(), nullptr);
  {
    TraceScope outer(&outer_t);
    EXPECT_EQ(current(), &outer_t);
    SIMTY_TRACE_INSTANT(at_us(1), TraceCategory::kSim, "outer", 0);
    {
      TraceScope inner(&inner_t);
      EXPECT_EQ(current(), &inner_t);
      SIMTY_TRACE_INSTANT(at_us(2), TraceCategory::kSim, "inner", 0);
    }
    EXPECT_EQ(current(), &outer_t);
  }
  EXPECT_EQ(current(), nullptr);
#if !defined(SIMTY_TRACE_DISABLED)
  EXPECT_EQ(outer_t.size(), 1u);
  EXPECT_EQ(inner_t.size(), 1u);
  EXPECT_STREQ(outer_t.snapshot()[0].label, "outer");
#endif
}

TEST(Tracer, ChromeJsonGolden) {
  Tracer t;
  t.span_begin(at_us(5), TraceCategory::kSim, "fire", 2);
  t.instant(at_us(6), TraceCategory::kNet, "rrc-state", 1);
  t.counter(at_us(7), TraceCategory::kHw, "cpu-locks", 3);
  t.span_end(at_us(8), TraceCategory::kSim, "fire", 2);
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"fire\",\"cat\":\"sim\",\"ph\":\"B\",\"ts\":5,"
      "\"pid\":0,\"tid\":0,\"args\":{\"arg\":2}},\n"
      "{\"name\":\"rrc-state\",\"cat\":\"net\",\"ph\":\"I\",\"s\":\"t\","
      "\"ts\":6,\"pid\":0,\"tid\":0,\"args\":{\"arg\":1}},\n"
      "{\"name\":\"cpu-locks\",\"cat\":\"hw\",\"ph\":\"C\",\"ts\":7,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":3}},\n"
      "{\"name\":\"fire\",\"cat\":\"sim\",\"ph\":\"E\",\"ts\":8,"
      "\"pid\":0,\"tid\":0,\"args\":{\"arg\":2}}\n"
      "]}\n";
  EXPECT_EQ(t.chrome_json(), expected);
}

TEST(Tracer, ChromeJsonEscapesHostileLabels) {
  Tracer t;
  t.instant(at_us(0), TraceCategory::kSim, "quo\"te\\slash\nline", 0);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("quo\\\"te\\\\slash\\nline"), std::string::npos);
}

std::string saved(const Tracer& t) {
  snapshot::Writer w;
  w.begin_section(Tracer::kSection, Tracer::kFileVersion);
  t.save(w);
  w.end_section();
  return w.finish();
}

void restore_into(Tracer& t, const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section(Tracer::kSection, Tracer::kFileVersion);
  t.restore(s);
  EXPECT_TRUE(s.at_end());
}

TEST(Tracer, SaveRestoreRoundTripsAndResavesIdentically) {
  Tracer t;
  t.span_begin(at_us(-5), TraceCategory::kExp, "run", 42);  // negative times ok
  t.instant(at_us(100), TraceCategory::kAlarm, "batch-create", 7);
  t.instant(at_us(200), TraceCategory::kAlarm, "batch-create", 8);
  const std::string bytes = saved(t);

  // Labels dedup by content in first-appearance order.
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section(Tracer::kSection, Tracer::kFileVersion);
  ASSERT_EQ(s.u64(), 2u);
  EXPECT_EQ(s.str(), "run");
  EXPECT_EQ(s.str(), "batch-create");
  EXPECT_EQ(s.i64(), 1);  // open spans
  EXPECT_EQ(s.u64(), 3u);

  Tracer r;
  r.instant(at_us(1), TraceCategory::kSim, "stale", 0);  // replaced wholesale
  restore_into(r, bytes);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.open_spans(), 1);
  for (std::size_t i = 0; i < 3; ++i) {
    const TraceEvent& a = t.snapshot()[i];
    const TraceEvent& b = r.snapshot()[i];
    EXPECT_EQ(a.t_us, b.t_us);
    EXPECT_STREQ(a.label, b.label);
    EXPECT_EQ(a.arg, b.arg);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.category, b.category);
  }
  EXPECT_EQ(saved(r), bytes);
  // The restored tracer keeps recording, span balance included.
  r.span_end(at_us(300), TraceCategory::kExp, "run", 42);
  t.span_end(at_us(300), TraceCategory::kExp, "run", 42);
  EXPECT_EQ(saved(r), saved(t));
}

TEST(Tracer, BinaryIsIdenticalForIdenticalEventSequences) {
  // Labels with equal content but distinct storage must serialize the same:
  // save() dedups by content, never by pointer.
  const std::string heap_label = "fire";
  Tracer a, b;
  a.instant(at_us(1), TraceCategory::kSim, "fire", 0);
  b.instant(at_us(1), TraceCategory::kSim, heap_label.c_str(), 0);
  EXPECT_EQ(saved(a), saved(b));
}

// A hand-built tracer section, so each restore() check can be hit alone.
struct RawEvent {
  std::uint32_t label = 0;
  std::uint8_t kind = 0;
  std::uint8_t category = 0;
};

std::string raw_section(std::int64_t open_spans, std::uint64_t event_count,
                        const std::vector<RawEvent>& events) {
  snapshot::Writer w;
  w.begin_section(Tracer::kSection, Tracer::kFileVersion);
  w.u64(1);
  w.str("tick");
  w.i64(open_spans);
  w.u64(event_count);
  for (const RawEvent& e : events) {
    w.i64(10);
    w.u32(e.label);
    w.u8(e.kind);
    w.u8(e.category);
    w.i64(0);
  }
  w.end_section();
  return w.finish();
}

// The std::logic_error message restore() raises ("" when it accepts).
std::string rejection(const std::string& bytes) {
  Tracer t;
  try {
    restore_into(t, bytes);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Tracer, RestoreRejectsLabelIndexOutOfRange) {
  EXPECT_EQ(rejection(raw_section(0, 1, {RawEvent{0, 0, 0}})), "");
  EXPECT_NE(rejection(raw_section(0, 1, {RawEvent{1, 0, 0}})).find("label index"),
            std::string::npos);
}

TEST(Tracer, RestoreRejectsBadEventKind) {
  EXPECT_EQ(rejection(raw_section(0, 1, {RawEvent{0, 3, 0}})), "");  // kCounter
  EXPECT_NE(rejection(raw_section(0, 1, {RawEvent{0, 4, 0}})).find("bad event kind"),
            std::string::npos);
}

TEST(Tracer, RestoreRejectsBadEventCategory) {
  EXPECT_EQ(rejection(raw_section(0, 1, {RawEvent{0, 0, 4}})), "");  // kExp
  EXPECT_NE(
      rejection(raw_section(0, 1, {RawEvent{0, 0, 5}})).find("bad event category"),
      std::string::npos);
}

TEST(Tracer, RestoreRejectsNegativeOpenSpanCount) {
  EXPECT_NE(rejection(raw_section(-1, 0, {})).find("negative open span"),
            std::string::npos);
}

TEST(Tracer, RestoreRejectsEventCountOverrunningPayload) {
  EXPECT_NE(rejection(raw_section(0, 2, {RawEvent{}})).find("overruns payload"),
            std::string::npos);
}

TEST(Tracer, DiffReportsEqualTraces) {
  Tracer a, b;
  for (Tracer* t : {&a, &b}) {
    t->instant(at_us(1), TraceCategory::kSim, "tick", 1);
    t->instant(at_us(2), TraceCategory::kSim, "tick", 2);
  }
  const TraceDiff d = diff_traces(a, b);
  EXPECT_TRUE(d.equal);
  EXPECT_FALSE(d.first_divergence.has_value());
  EXPECT_NE(d.summary.find("identical"), std::string::npos);
}

TEST(Tracer, DiffPinpointsFirstDivergentEvent) {
  Tracer a, b;
  a.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  a.instant(at_us(2), TraceCategory::kSim, "tick", 2);
  a.instant(at_us(3), TraceCategory::kSim, "tick", 3);
  b.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  b.instant(at_us(2), TraceCategory::kSim, "tick", 99);  // diverges here
  b.instant(at_us(3), TraceCategory::kSim, "tick", 3);
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.equal);
  ASSERT_TRUE(d.first_divergence.has_value());
  EXPECT_EQ(*d.first_divergence, 1u);
  EXPECT_NE(d.summary.find("arg=2"), std::string::npos);
  EXPECT_NE(d.summary.find("arg=99"), std::string::npos);
}

TEST(Tracer, DiffReportsLengthMismatch) {
  Tracer a, b;
  a.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  b.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  b.instant(at_us(2), TraceCategory::kSim, "tick", 2);
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.equal);
  ASSERT_TRUE(d.first_divergence.has_value());
  EXPECT_EQ(*d.first_divergence, 1u);
  EXPECT_NE(d.summary.find("b has 1 extra"), std::string::npos);
}

TEST(Tracer, SaveAndLoadBinaryFile) {
  Tracer t;
  t.instant(at_us(1), TraceCategory::kSim, "tick", 1);
  const std::string path = ::testing::TempDir() + "/simty_trace_test.bin";
  t.save_file(path);
  const std::string bytes = snapshot::read_file(path);
  EXPECT_EQ(bytes, saved(t));
  const snapshot::Reader reader(bytes);
  ASSERT_EQ(reader.section_count(), 1u);
  Tracer loaded;
  restore_into(loaded, bytes);
  EXPECT_TRUE(diff_traces(t, loaded).equal);
  std::remove(path.c_str());
  EXPECT_THROW(t.save_file("/nonexistent/simty.trace"), std::runtime_error);

  const std::string json_path = ::testing::TempDir() + "/simty_trace_test.json";
  t.save_chrome_json(json_path);
  EXPECT_EQ(snapshot::read_file(json_path), t.chrome_json());
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace simty::trace
