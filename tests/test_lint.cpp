// Unit tests: dtnsim-lint rules engine (classification, each rule,
// suppressions, renderers).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "dtnsim/lint/lint.hpp"
#include "dtnsim/util/json.hpp"

namespace dtnsim::lint {
namespace {

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintClassify, PathKinds) {
  EXPECT_EQ(classify("src/dtnsim/kern/skb.hpp"), FileKind::LibraryHeader);
  EXPECT_EQ(classify("src/dtnsim/kern/skb.cpp"), FileKind::LibrarySource);
  EXPECT_EQ(classify("src/dtnsim/units/units.hpp"), FileKind::UnitsLibrary);
  EXPECT_EQ(classify("bench/fig09_optmem_sweep.cpp"), FileKind::Bench);
  EXPECT_EQ(classify("tests/test_kern.cpp"), FileKind::Test);
  EXPECT_EQ(classify("tools/dtnsim_lint.cpp"), FileKind::Tool);
  EXPECT_EQ(classify("examples/quickstart.cpp"), FileKind::Example);
  EXPECT_EQ(classify("README.md"), FileKind::Other);
}

TEST(LintClassify, FixtureTreesClassifyByInnermostLayout) {
  // The embedded src/ wins over the outer tests/ prefix.
  EXPECT_EQ(classify("tests/lint_fixtures/src/dtnsim/fake/x.hpp"),
            FileKind::LibraryHeader);
  EXPECT_EQ(classify("tests/lint_fixtures/tests/fake_test.cpp"), FileKind::Test);
}

TEST(LintDeterminism, FlagsClocksAndRand) {
  const std::string code =
      "#include <chrono>\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "int r = rand();\n"
      "long w = time(nullptr);\n";
  const auto fs = lint_file("src/dtnsim/fake/a.cpp", code);
  EXPECT_EQ(count_rule(fs, "determinism"), 3);
}

TEST(LintDeterminism, IgnoresLookalikeIdentifiers) {
  const std::string code =
      "units::SimTime t = units::SimTime::from_seconds(2);\n"
      "double uptime = runtime(x);\n"   // `runtime(` is not `time(`
      "int grand = grand_total(1);\n";  // `grand_total` is not `rand`
  EXPECT_TRUE(lint_file("src/dtnsim/fake/a.cpp", code).empty());
}

TEST(LintDeterminism, BenchAndToolCodeMayUseWallClocks) {
  const std::string code = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_file("bench/bm.cpp", code).empty());
  EXPECT_TRUE(lint_file("tools/t.cpp", code).empty());
  EXPECT_EQ(count_rule(lint_file("src/dtnsim/x/y.cpp", code), "determinism"), 1);
}

TEST(LintDeterminism, CommentsAndStringsDoNotTrip) {
  const std::string code =
      "// steady_clock is banned here\n"
      "const char* msg = \"rand() and time() are banned\";\n"
      "/* random_device too */\n";
  EXPECT_TRUE(lint_file("src/dtnsim/fake/a.cpp", code).empty());
}

TEST(LintRawUnitDouble, FlagsScaledUnitParamsInHeaders) {
  const std::string code =
      "struct Api {\n"
      "  void pace(double pacing_gbps);\n"
      "  void run(double duration_seconds, int repeats);\n"
      "};\n";
  const auto fs = lint_file("src/dtnsim/fake/api.hpp", code);
  EXPECT_EQ(count_rule(fs, "raw-unit-double"), 2);
}

TEST(LintRawUnitDouble, FlagsScaledUnitReturnsInHeaders) {
  const std::string code =
      "struct Pool {\n"
      "  double busy_seconds() const;\n"
      "};\n"
      "double peak_gbps();\n";
  const auto fs = lint_file("src/dtnsim/fake/api.hpp", code);
  EXPECT_EQ(count_rule(fs, "raw-unit-double"), 2);
  // The message names the offending function, not a parameter.
  ASSERT_FALSE(fs.empty());
  EXPECT_NE(fs[0].message.find("returns a scaled unit"), std::string::npos);
}

TEST(LintRawUnitDouble, ReturnRuleKeepsBareBpsAndMembersLegal) {
  const std::string code =
      "double rate_bps();\n"                     // raw bps is the fluid idiom
      "struct R { double avg_gbps = 0.0; };\n";  // member, no call parens
  EXPECT_TRUE(lint_file("src/dtnsim/fake/api.hpp", code).empty());
}

TEST(LintRawUnitDouble, TickConventionsStayLegal) {
  // dt_sec / t_sec / raw bps are the repo's documented fluid-math idiom.
  const std::string code =
      "void tick(double dt_sec, double rate_bps);\n"
      "double to_rate(double bytes, double t_sec);\n";
  EXPECT_TRUE(lint_file("src/dtnsim/fake/api.hpp", code).empty());
}

TEST(LintRawUnitDouble, MembersAndSourcesExempt) {
  // Depth-0 member declarations are results/state, not API boundaries.
  const std::string member = "struct R { double avg_gbps = 0.0; };\n";
  EXPECT_TRUE(lint_file("src/dtnsim/fake/api.hpp", member).empty());
  // Rule only applies to headers; .cpp internals are free.
  const std::string src = "static double f(double x_gbps) { return x_gbps; }\n";
  EXPECT_TRUE(lint_file("src/dtnsim/fake/api.cpp", src).empty());
  // units/ itself hosts the raw-double compatibility helpers.
  const std::string units_code = "constexpr double gbps(double gbps);\n";
  EXPECT_TRUE(lint_file("src/dtnsim/units/units.hpp", units_code).empty());
}

TEST(LintRawUnitDouble, MultiLineSignatures) {
  const std::string code =
      "void configure(int streams,\n"
      "               double pacing_gbps,\n"
      "               bool zerocopy);\n";
  EXPECT_EQ(count_rule(lint_file("src/dtnsim/fake/api.hpp", code), "raw-unit-double"), 1);
}

TEST(LintIncludeHygiene, BenchHeadersAreBenchOnly) {
  const std::string code = "#include \"bench/bench_common.hpp\"\n";
  EXPECT_EQ(count_rule(lint_file("tests/t.cpp", code), "include-hygiene"), 1);
  EXPECT_EQ(count_rule(lint_file("src/dtnsim/a/b.cpp", code), "include-hygiene"), 1);
  EXPECT_TRUE(lint_file("bench/fig.cpp", code).empty());
}

TEST(LintIncludeHygiene, IostreamBannedInLibraryOnly) {
  const std::string code = "#include <iostream>\n";
  EXPECT_EQ(count_rule(lint_file("src/dtnsim/a/b.hpp", code), "include-hygiene"), 1);
  EXPECT_TRUE(lint_file("tools/t.cpp", code).empty());
  EXPECT_TRUE(lint_file("tests/t.cpp", code).empty());
}

TEST(LintMutexGuard, BareLocksFlaggedInSweepOnly) {
  const std::string code = "mu_.lock();\nwork();\nmu_.unlock();\n";
  EXPECT_EQ(count_rule(lint_file("src/dtnsim/sweep/pool.cpp", code), "mutex-guard"), 2);
  // Outside sweep/ the rule does not apply.
  EXPECT_TRUE(lint_file("src/dtnsim/kern/x.cpp", code).empty());
}

TEST(LintMutexGuard, RaiiGuardsPass) {
  const std::string code =
      "std::lock_guard<std::mutex> lock(mu_);\n"
      "std::unique_lock<std::mutex> ul(mu_);\n";
  EXPECT_TRUE(lint_file("src/dtnsim/sweep/pool.cpp", code).empty());
}

TEST(LintSuppression, SameLineAndPreviousLine) {
  const std::string same =
      "auto t = std::chrono::steady_clock::now();  // dtnsim-lint: allow(determinism)\n";
  EXPECT_TRUE(lint_file("src/dtnsim/a/b.cpp", same).empty());
  const std::string prev =
      "// dtnsim-lint: allow(determinism)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_file("src/dtnsim/a/b.cpp", prev).empty());
}

TEST(LintSuppression, WrongRuleDoesNotSuppress) {
  const std::string code =
      "auto t = std::chrono::steady_clock::now();  // dtnsim-lint: allow(mutex-guard)\n";
  EXPECT_EQ(count_rule(lint_file("src/dtnsim/a/b.cpp", code), "determinism"), 1);
}

TEST(LintSuppression, AllWildcardAndMultiRule) {
  const std::string all =
      "auto t = std::chrono::steady_clock::now();  // dtnsim-lint: allow(all)\n";
  EXPECT_TRUE(lint_file("src/dtnsim/a/b.cpp", all).empty());
  const std::string multi =
      "// dtnsim-lint: allow(determinism, include-hygiene)\n"
      "#include <iostream>  \n";
  EXPECT_TRUE(lint_file("src/dtnsim/a/b.hpp", multi).empty());
}

TEST(LintOutput, HumanFormat) {
  const auto fs = lint_file("src/dtnsim/a/b.cpp", "int r = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  const auto text = to_human(fs);
  EXPECT_NE(text.find("src/dtnsim/a/b.cpp:1: [determinism]"), std::string::npos);
}

TEST(LintOutput, JsonFormatAndEscaping) {
  std::vector<Finding> fs = {{"determinism", "a\"b.cpp", 3, "line1\nline2"}};
  const auto json = to_json(fs);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b.cpp"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_EQ(to_json({}), "{\"count\":0,\"findings\":[]}");
}

// ---- --json schema golden ----------------------------------------------

void collect_key_paths(const Json& j, const std::string& prefix,
                       std::set<std::string>& out) {
  if (j.is_object()) {
    for (const auto& k : j.keys()) {
      const std::string path = prefix.empty() ? k : prefix + "." + k;
      out.insert(path);
      collect_key_paths(*j.find(k), path, out);
    }
  } else if (j.is_array()) {
    for (std::size_t i = 0; i < j.size(); ++i)
      collect_key_paths(*j.at(i), prefix, out);
  }
}

TEST(LintOutput, JsonSchemaMatchesGolden) {
  const auto fs =
      lint_file("src/dtnsim/fake/a.cpp", "int r = rand();\n");
  ASSERT_FALSE(fs.empty());
  const auto doc = Json::parse(to_json(fs));
  ASSERT_TRUE(doc);
  std::set<std::string> paths;
  collect_key_paths(*doc, "", paths);
  std::string got;
  for (const auto& p : paths) got += p + "\n";
  const std::string golden_path =
      std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/lint_json_keys.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << golden_path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "lint --json schema drifted; update tests/golden/lint_json_keys.txt";
}

}  // namespace
}  // namespace dtnsim::lint
