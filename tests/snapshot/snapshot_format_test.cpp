// Snapshot container format: field-level round-trips, version and tag
// discipline, the generic decode/diff used by tools/snapshot_diff, and —
// the hostile-input satellite — randomized-corruption sweeps asserting
// that every mangled container (and every mangled `--trace` file fed
// through Tracer::restore) is either decoded or rejected with
// std::logic_error via SIMTY_CHECK, never undefined behavior. The suite
// runs under the sanitizer CI job, which is what turns "never UB" from a
// comment into a checked property.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::snapshot {
namespace {

std::string sample_snapshot() {
  Writer w;
  w.begin_section("alpha", 3);
  w.u8(7);
  w.u32(123456);
  w.u64(0xdeadbeefcafef00dull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.str("hello snapshot");
  w.bytes(std::string("\x00\x01\x02\xff", 4));
  w.end_section();
  w.begin_section("beta", 1);
  w.u64(9);
  w.end_section();
  return w.finish();
}

TEST(SnapshotFormat, EveryFieldTypeRoundTripsExactly) {
  const Reader reader(sample_snapshot());
  ASSERT_TRUE(reader.has_section("alpha"));
  ASSERT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));
  SectionReader s = reader.section("alpha", 3);
  EXPECT_EQ(s.u8(), 7u);
  EXPECT_EQ(s.u32(), 123456u);
  EXPECT_EQ(s.u64(), 0xdeadbeefcafef00dull);
  EXPECT_EQ(s.i64(), -42);
  EXPECT_EQ(s.f64(), 3.141592653589793);
  EXPECT_TRUE(s.boolean());
  EXPECT_EQ(s.str(), "hello snapshot");
  EXPECT_EQ(s.bytes(), std::string("\x00\x01\x02\xff", 4));
  EXPECT_TRUE(s.at_end());
}

TEST(SnapshotFormat, TagDisciplineCatchesSchemaSkew) {
  const Reader reader(sample_snapshot());
  SectionReader s = reader.section("alpha", 3);
  EXPECT_EQ(s.peek_tag(), static_cast<std::uint8_t>(FieldType::kU8));
  // Reading a u64 where a u8 was written fails loudly instead of
  // desynchronizing the stream.
  EXPECT_THROW(s.u64(), std::logic_error);
}

TEST(SnapshotFormat, VersionMismatchIsRejected) {
  const Reader reader(sample_snapshot());
  EXPECT_THROW(reader.section("alpha", 2), std::logic_error);
  EXPECT_THROW(reader.section("missing", 1), std::logic_error);
}

TEST(SnapshotFormat, CheckCountGuardsHostileAllocationSizes) {
  const Reader reader(sample_snapshot());
  SectionReader s = reader.section("beta", 1);
  // One u64 field (9 wire bytes) remains; a claimed count of a million
  // 9-byte items cannot fit and must be rejected before any reserve.
  EXPECT_THROW(s.check_count(1u << 20, 9), std::logic_error);
  s.check_count(0, 9);  // zero items always fit
}

TEST(SnapshotFormat, DecodeAndDiffNameTheFirstDivergence) {
  const DecodedSnapshot a = decode_snapshot(sample_snapshot());
  ASSERT_EQ(a.sections.size(), 2u);
  EXPECT_EQ(a.sections[0].name, "alpha");
  EXPECT_EQ(a.sections[0].version, 3u);
  ASSERT_EQ(a.sections[0].fields.size(), 8u);

  EXPECT_TRUE(diff_snapshots(a, a).equal);

  Writer w;
  w.begin_section("alpha", 3);
  w.u8(7);
  w.u32(999999);  // diverges at field #2
  w.end_section();
  const SnapshotDiff diff = diff_snapshots(a, decode_snapshot(w.finish()));
  EXPECT_FALSE(diff.equal);
  EXPECT_NE(diff.summary.find("alpha"), std::string::npos);
  EXPECT_EQ(diff.section, "alpha");
}

TEST(SnapshotFormat, FileRoundTripAndAtomicWrite) {
  const std::string path = ::testing::TempDir() + "snapshot_format_test.snap";
  const std::string bytes = sample_snapshot();
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  // Overwrite via the atomic path: the rename replaces, never appends.
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  std::remove(path.c_str());
  EXPECT_THROW(read_file(path), std::runtime_error);
}

TEST(SnapshotFormat, ObviousMalformationsAreRejected) {
  const std::string good = sample_snapshot();
  EXPECT_THROW(Reader(""), std::logic_error);
  EXPECT_THROW(Reader("SMTYSNP9" + good.substr(8)), std::logic_error);
  EXPECT_THROW(Reader(good.substr(0, 10)), std::logic_error);
  EXPECT_THROW(Reader(good + "trailing"), std::logic_error);
}

// One random corruption of `good`: a byte flip, a multi-byte stomp, a
// truncation, or a grafted tail.
std::string mangle(const std::string& good, Rng& rng) {
  std::string bytes = good;
  const std::uint32_t kind = rng.next_below(4);
  if (kind == 0) {  // single byte flip
    bytes[rng.next_below(static_cast<std::uint32_t>(bytes.size()))] ^=
        static_cast<char>(1 + rng.next_below(255));
  } else if (kind == 1) {  // stomp a run of bytes
    const std::size_t at = rng.next_below(static_cast<std::uint32_t>(bytes.size()));
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(8), bytes.size() - at);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[at + i] = static_cast<char>(rng.next_u32());
    }
  } else if (kind == 2) {  // truncate
    bytes.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size())));
  } else {  // inflate: graft random tail bytes
    const std::size_t extra = 1 + rng.next_below(32);
    for (std::size_t i = 0; i < extra; ++i) {
      bytes.push_back(static_cast<char>(rng.next_u32()));
    }
  }
  return bytes;
}

TEST(SnapshotFormat, RandomizedCorruptionNeverEscapesTheChecks) {
  // Fuzz-style sweep: mangle a real container thousands of ways — byte
  // flips, multi-byte stomps, truncations, length-field inflations — and
  // require every outcome to be "decoded fine" or "std::logic_error".
  // Anything else (crash, hang, other exception type) fails the test; UB
  // is caught by the sanitizer job running this same sweep.
  const std::string good = sample_snapshot();
  Rng rng(0xf02d, 17);
  int rejected = 0, survived = 0;
  for (int round = 0; round < 4000; ++round) {
    try {
      const DecodedSnapshot decoded = decode_snapshot(mangle(good, rng));
      // Data-byte corruption can still be a well-formed container;
      // decoding it is the acceptable outcome.
      survived += static_cast<int>(!decoded.sections.empty());
    } catch (const std::logic_error&) {
      ++rejected;  // the clean rejection path
    }
  }
  // The sweep must exercise both outcomes, or the corruptions are too
  // tame / too wild to mean anything.
  EXPECT_GT(rejected, 100);
  EXPECT_GT(survived, 10);
}

TEST(SnapshotFormat, RandomizedTracerCorruptionNeverEscapesTheChecks) {
  // The same sweep over a `--trace` file, fed through Tracer::restore —
  // the only decoder of trace bytes. A mangled label index, enum byte,
  // span count or event count must surface as std::logic_error.
  trace::Tracer t;
  t.span_begin(TimePoint::from_us(1), trace::TraceCategory::kExp, "run", 7);
  t.instant(TimePoint::from_us(2), trace::TraceCategory::kAlarm, "batch-join", 3);
  t.counter(TimePoint::from_us(3), trace::TraceCategory::kHw, "cpu-locks", 1);
  t.span_end(TimePoint::from_us(4), trace::TraceCategory::kExp, "run", 7);
  Writer w;
  w.begin_section(trace::Tracer::kSection, trace::Tracer::kFileVersion);
  t.save(w);
  w.end_section();
  const std::string good = w.finish();
  Rng rng(0x7ace, 5);
  int rejected = 0, survived = 0;
  for (int round = 0; round < 4000; ++round) {
    try {
      const Reader reader(mangle(good, rng));
      SectionReader s =
          reader.section(trace::Tracer::kSection, trace::Tracer::kFileVersion);
      trace::Tracer restored;
      restored.restore(s);
      ++survived;
    } catch (const std::logic_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100);
  EXPECT_GT(survived, 10);
}

}  // namespace
}  // namespace simty::snapshot
