// Unit tests: the experiment registry, its claims and the runner that checks
// them. The claims themselves run in the paper_claims ctest
// (`dtnsim-repro --all --quick`).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "dtnsim/harness/experiments.hpp"

namespace dtnsim::harness {
namespace {

TEST(Registry, CoversEveryPaperArtifact) {
  std::set<std::string> ids;
  for (const auto& def : experiment_registry()) ids.insert(def.id);
  // Every evaluation figure and table has an entry.
  for (const char* required :
       {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "fig13", "table1", "table2", "table3"}) {
    EXPECT_TRUE(ids.count(required)) << required;
  }
  EXPECT_GE(ids.size(), 16u);  // plus ablations
}

TEST(Registry, IdsUniqueAndLookupWorks) {
  std::set<std::string> ids;
  for (const auto& def : experiment_registry()) {
    EXPECT_TRUE(ids.insert(def.id).second) << "duplicate id " << def.id;
    EXPECT_EQ(find_experiment(def.id), &def);
    EXPECT_FALSE(def.title.empty());
    EXPECT_FALSE(def.claims.empty()) << def.id << " checks nothing";
  }
  EXPECT_EQ(find_experiment("fig99"), nullptr);
}

TEST(Registry, SpecsAreWellFormed) {
  for (const auto& def : experiment_registry()) {
    const auto specs = def.specs();
    EXPECT_FALSE(specs.empty()) << def.id;
    std::set<std::string> names;
    for (const auto& s : specs) {
      EXPECT_FALSE(s.name.empty()) << def.id;
      EXPECT_TRUE(names.insert(s.name).second)
          << def.id << " duplicate spec name " << s.name;
      EXPECT_GE(s.iperf.parallel, 1);
    }
  }
}

// A claim may name only cells of its own entry, and its band must be a band.
TEST(Registry, ClaimsNameCellsOfTheirEntry) {
  for (const auto& def : experiment_registry()) {
    std::set<std::string> cells;
    for (const auto& s : def.specs()) cells.insert(s.name);
    for (const auto& c : def.claims) {
      EXPECT_TRUE(cells.count(c.of)) << def.id << ": \"" << c.what << "\" names " << c.of;
      EXPECT_TRUE(c.over.empty() || cells.count(c.over))
          << def.id << ": \"" << c.what << "\" names " << c.over;
      EXPECT_STRNE(column_name(c.column), "?") << def.id << ": " << c.what;
      EXPECT_LE(c.lo, c.hi) << def.id << ": " << c.what;
    }
  }
}

TEST(Registry, TableSpecsMatchPaperGrids) {
  const auto t1 = find_experiment("table1")->specs();
  ASSERT_EQ(t1.size(), 4u);  // unpaced + 25/20/15
  EXPECT_DOUBLE_EQ(t1[1].iperf.fq_rate_bps, 25e9);
  EXPECT_EQ(t1[0].iperf.parallel, 8);

  const auto t3 = find_experiment("table3")->specs();
  ASSERT_EQ(t3.size(), 4u);
  EXPECT_TRUE(t3[0].link_flow_control);
}

TestResult cell(const std::string& name, double gbps, double retransmits) {
  TestResult r;
  r.name = name;
  r.avg_gbps = gbps;
  r.avg_retransmits = retransmits;
  return r;
}

// Hand-built results, no simulation: each way a claim can fail names it.
TEST(Claims, FailureNamesTheClaim) {
  const double none = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Claim> claims = {
      {"paced beats unpaced", "paced", "unpaced", &report::RunSummary::avg_gbps, 1.0, 1.2,
       none},
      {"paced is loss-free", "paced", "", &report::RunSummary::avg_retransmits, 0, 100, 0},
      {"retransmits fall with pacing", "unpaced", "paced",
       &report::RunSummary::avg_retransmits, 2.0, inf, none},
      {"a cell nobody ran", "missing", "", &report::RunSummary::avg_gbps, 0, 200, none},
  };
  const std::vector<TestResult> results = {cell("unpaced", 100, 5000), cell("paced", 110, 0)};
  const auto checked = check_claims(claims, results);
  ASSERT_EQ(checked.size(), claims.size());

  EXPECT_TRUE(checked[0].pass);
  EXPECT_DOUBLE_EQ(checked[0].measured, 1.1);
  EXPECT_TRUE(checked[1].pass);
  // A ratio over zero and a missing cell fail rather than divide or guess.
  EXPECT_FALSE(checked[2].pass);
  EXPECT_TRUE(std::isnan(checked[2].measured));
  EXPECT_FALSE(checked[3].pass);

  const std::string line = format_claim(checked[2]);
  EXPECT_EQ(line.rfind("FAIL", 0), 0u) << line;
  EXPECT_NE(line.find("retransmits fall with pacing"), std::string::npos) << line;
  EXPECT_NE(line.find("avg_retransmits unpaced / paced"), std::string::npos) << line;
  EXPECT_NE(format_claim(checked[1]).find("paper 0"), std::string::npos);

  // The same value out of band fails, and the failure names its claim.
  std::vector<TestResult> slower = results;
  slower[1].avg_gbps = 90;
  const auto moved = check_claims(claims, slower);
  EXPECT_FALSE(moved[0].pass);
  EXPECT_EQ(moved[0].claim, &claims[0]);
  EXPECT_NE(format_claim(moved[0]).find("FAIL  paced beats unpaced"), std::string::npos);
}

TEST(RunExperiment, AppliesLengthAndChecksClaims) {
  const auto* def = find_experiment("fig6");
  ASSERT_NE(def, nullptr);
  obs::TelemetryConfig telemetry;
  telemetry.enabled = true;
  const ExperimentRun run = run_experiment(*def, 3.0, 2, telemetry);
  ASSERT_EQ(run.specs.size(), 6u);  // 3 configs x 2 paths
  ASSERT_EQ(run.results.size(), run.specs.size());
  for (std::size_t i = 0; i < run.specs.size(); ++i) {
    EXPECT_DOUBLE_EQ(run.specs[i].iperf.duration_sec, 3.0);
    EXPECT_EQ(run.results[i].name, run.specs[i].name);
    EXPECT_EQ(run.results[i].repeats, 2);
    EXPECT_EQ(run.results[i].repeat_series.size(), 2u);  // telemetry armed
  }
  EXPECT_EQ(run.claims.size(), def->claims.size());

  // A cell that pins its own repeat count keeps it.
  for (const auto& spec : run_experiment(*find_experiment("ablation_affinity"), 1.0, 2).specs)
    EXPECT_EQ(spec.repeats, 24);
}

}  // namespace
}  // namespace dtnsim::harness
