// Self-tests for simty_lint's whole-tree passes: each fixture tree under
// trees/ injects one violation class (transitive wall-clock taint, a POSIX
// clock laundered through a helper, layering back edge + include cycle) and
// the checker must fail it with a diagnostic naming the full call/include
// chain — or pass it when the escape hatch is present. The parser itself is
// pinned by the model tests at the bottom.

#include "lint.hpp"
#include "model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace simty::lint {
namespace {

namespace fs = std::filesystem;

/// Loads every source under trees/<name>/ with tree-relative paths (so
/// "src/sim/..." classification applies as in the real tree).
std::vector<SourceFile> load_tree(const std::string& name) {
  const fs::path root = fs::path(SIMTY_LINT_TEST_DIR) / "trees" / name;
  std::vector<SourceFile> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back({fs::relative(entry.path(), root).generic_string(), buf.str()});
  }
  EXPECT_FALSE(out.empty()) << "missing fixture tree " << root;
  return out;
}

TEST(AnalyzeTaint, TransitiveWallClockReachingCoreIsReportedWithChain) {
  const Report report = lint_tree(load_tree("taint"));
  ASSERT_EQ(report.findings.size(), 1u);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "taint");
  // Reported where taint enters the core (tick), not at the core-internal
  // caller (step) — one finding per chain, not one per frame.
  EXPECT_EQ(f.file, "src/sim/engine.cpp");
  EXPECT_NE(f.message.find("tick"), std::string::npos);
  EXPECT_NE(f.message.find("system_clock"), std::string::npos);
  // The chain names every hop down to the seed.
  ASSERT_EQ(f.chain.size(), 2u);
  EXPECT_NE(f.chain[0].find("tick"), std::string::npos);
  EXPECT_NE(f.chain[0].find("now_ms"), std::string::npos);
  EXPECT_NE(f.chain[1].find("src/common/timing.cpp"), std::string::npos);
  EXPECT_NE(f.chain[1].find("system_clock"), std::string::npos);
}

TEST(AnalyzeTaint, LaunderedPosixClockReachingCoreIsReported) {
  // clock_gettime sits in src/common, outside the per-file wall-clock
  // rule's scope; only the shared source table makes it a taint seed.
  const Report report = lint_tree(load_tree("laundered"));
  ASSERT_EQ(report.findings.size(), 1u);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "taint");
  EXPECT_EQ(f.file, "src/sim/run.cpp");
  EXPECT_NE(f.message.find("run_step"), std::string::npos);
  ASSERT_EQ(f.chain.size(), 2u);
  EXPECT_NE(f.chain[0].find("now_ns"), std::string::npos);
  EXPECT_NE(f.chain[1].find("src/common/util.cpp"), std::string::npos);
  EXPECT_NE(f.chain[1].find("clock_gettime"), std::string::npos);
}

TEST(AnalyzeTaint, DirectSourceInCoreIsReportedOnce) {
  // A source with a per-file rule is that rule's finding where it is
  // written in the core; only taint-only sources (getenv) seed there.
  const Report report = lint_tree(
      {{"src/sim/a.cpp",
        "long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n"
        "const char* g() { return std::getenv(\"HOME\"); }\n"}});
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].rule, "wall-clock");
  EXPECT_EQ(report.findings[0].line, 1);
  EXPECT_EQ(report.findings[1].rule, "taint");
  EXPECT_EQ(report.findings[1].line, 2);
}

TEST(AnalyzeTaint, AllowOnSeedLineSilencesTheWholeChain) {
  const Report report = lint_tree(load_tree("taint_allow"));
  EXPECT_TRUE(report.findings.empty()) << report.findings[0].message;
}

TEST(AnalyzeLayering, BackEdgeAndCycleAreBothReported) {
  const Report report = lint_tree(load_tree("layering"));
  ASSERT_EQ(report.findings.size(), 2u);  // sorted by file: alarm cycle, hw back edge
  const auto back = std::find_if(report.findings.begin(), report.findings.end(),
                                 [](const Finding& f) { return f.rule == "layering"; });
  ASSERT_NE(back, report.findings.end());
  EXPECT_EQ(back->file, "src/hw/radio.hpp");
  EXPECT_NE(back->message.find("'hw'"), std::string::npos);
  EXPECT_NE(back->message.find("'alarm'"), std::string::npos);
  const auto cycle = std::find_if(report.findings.begin(), report.findings.end(),
                                  [](const Finding& f) { return f.rule == "include-cycle"; });
  ASSERT_NE(cycle, report.findings.end());
  // The chain walks the whole loop.
  ASSERT_EQ(cycle->chain.size(), 2u);
  EXPECT_NE(cycle->chain[0].find("sched.hpp"), std::string::npos);
  EXPECT_NE(cycle->chain[0].find("radio.hpp"), std::string::npos);
}

TEST(AnalyzeClean, WellLayeredTreeIsSilent) {
  const Report report = lint_tree(load_tree("clean"));
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.files, 3u);
  EXPECT_GT(report.call_edges, 0u);
}

TEST(AnalyzeApi, JsonReportCarriesChainsAndCounts) {
  const std::string json = to_json(lint_tree(load_tree("taint")));
  EXPECT_NE(json.find("\"rule\": \"taint\""), std::string::npos);
  EXPECT_NE(json.find("\"chain\": [\""), std::string::npos);
  EXPECT_NE(json.find("system_clock"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos);
}

TEST(AnalyzeApi, CheckNamesStable) {
  const auto& names = rule_names();
  for (const char* expected : {"taint", "layering", "include-cycle"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
  for (const char* removed : {"lock", "include"}) {
    EXPECT_EQ(std::find(names.begin(), names.end(), removed), names.end()) << removed;
  }
}

// ---- parser pins ---------------------------------------------------------

FileModel parse(const std::string& content, const std::string& path = "src/sim/x.cpp") {
  return build_model(path, content, scan_source(content));
}

TEST(AnalyzeModel, ParsesFunctionsMethodsAndQualifiedNames) {
  const FileModel m = parse(
      "namespace n {\n"
      "int free_fn(int v) { return v; }\n"
      "class C {\n"
      " public:\n"
      "  int inline_method() { return free_fn(1); }\n"
      "};\n"
      "int C::out_of_line() const { return 2; }\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 3u);
  EXPECT_EQ(m.functions[0].qualified, "free_fn");
  EXPECT_EQ(m.functions[1].qualified, "C::inline_method");
  EXPECT_EQ(m.functions[2].qualified, "C::out_of_line");
  ASSERT_EQ(m.functions[1].calls.size(), 1u);
  EXPECT_EQ(m.functions[1].calls[0].name, "free_fn");
}

TEST(AnalyzeModel, ConstructorsAndOperatorsAreSpecial) {
  // A constructor's init list and an operator's symbol name must not hide
  // the definition from the call graph.
  const FileModel m = parse(
      "struct S {\n"
      "  S() : v_(0) {}\n"
      "  bool operator==(const S& o) const { return v_ == o.v_; }\n"
      "  int v_;\n"
      "};\n");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].qualified, "S::S");
  EXPECT_EQ(m.functions[1].qualified, "S::operator==");
}

TEST(AnalyzeModel, SeedDetectionIsWordAndQualifierAware) {
  const FileModel m = parse(
      "void f() {\n"
      "  auto a = std::chrono::steady_clock::now();\n"
      "  auto b = std::hash<int>{}(1);\n"
      "  int grand_total = 0;\n"       // no 'rand' seed: word boundary
      "  long t = obj.time();\n"        // member named time: not the libc clock
      "  long c = sim.clock();\n"       // member named clock: not the libc clock
      "  (void)a; (void)b; (void)grand_total; (void)t; (void)c;\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  std::vector<std::string> seeds;
  for (const auto& s : m.functions[0].seeds) seeds.push_back(s.what);
  EXPECT_EQ(seeds, (std::vector<std::string>{"steady_clock", "std::hash"}));
}

TEST(AnalyzeModel, MacroBodiesWithBracesDoNotBreakScopes) {
  const FileModel m = parse(
      "#define CHECKED(x) do { if (!(x)) abort(); } while (0)\n"
      "int after_macro() { CHECKED(1); return 3; }\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].qualified, "after_macro");
}

}  // namespace
}  // namespace simty::lint
