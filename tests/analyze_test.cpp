// Tests for the cross-TU analyzer (tools/analyze).
//
// Three layers of assurance, mirroring lint_test:
//   1. unit tests drive the pass library directly (layers.txt parsing, the
//      only-filter, suppression and staleness semantics);
//   2. the fixture tree under tests/analyze_fixtures/ — a miniature repo
//      with one planted violation per pass (layer back-edge, include
//      cycle, undeclared module, a clock source laundered through two
//      calls from a certificate entry point, an unguarded annotated
//      field, a lock-order inversion, a poll-free infinite loop, a loop
//      whose only callee merely names a cancelled state) plus a suppressed
//      loop and a stale suppression — must produce exactly the expected
//      diagnostics;
//   3. the real tree must analyze clean, so the gate cannot silently rot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "analyze_core.hpp"

namespace ldlb::analyze {
namespace {

// Runs a command, returning {exit code, stdout}. The analyzer only writes
// diagnostics to stdout, so 2>/dev/null keeps the summary line out.
std::pair<int, std::string> run(const std::string& command) {
  FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  std::string output;
  char buffer[4096];
  while (pipe != nullptr && fgets(buffer, sizeof buffer, pipe) != nullptr) {
    output += buffer;
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

std::vector<Diagnostic> analyze_fixture_tree() {
  Options options;
  options.root = LDLB_ANALYZE_FIXTURE_ROOT;
  return analyze_tree(options);
}

TEST(AnalyzeLayers, ParsesCommentsAndMultiModuleLayers) {
  const auto layers = parse_layers(
      "# comment line\n"
      "util\n"
      "graph order matching  # trailing comment\n"
      "\n"
      "core\n");
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0], (std::vector<std::string>{"util"}));
  EXPECT_EQ(layers[1], (std::vector<std::string>{"graph", "order", "matching"}));
  EXPECT_EQ(layers[2], (std::vector<std::string>{"core"}));
}

TEST(AnalyzeFixtures, ExactDiagnosticsFromPlantedTree) {
  const auto diags = analyze_fixture_tree();
  std::vector<std::string> got;
  for (const auto& d : diags) {
    got.push_back(d.path + ":" + std::to_string(d.line) + ":" + d.rule);
  }
  const std::vector<std::string> expected = {
      "src/ldlb/core/locked.cpp:14:locks",
      "src/ldlb/core/locked.cpp:18:locks",
      "src/ldlb/core/locked.cpp:23:locks",
      "src/ldlb/core/spin.cpp:9:cancellation",
      "src/ldlb/core/spin.cpp:53:cancellation",
      "src/ldlb/graph/cyc_a.hpp:3:layering",
      "src/ldlb/graph/stale.cpp:3:stale-suppression",
      "src/ldlb/order/extra.cpp:1:layering",
      "src/ldlb/util/tick.cpp:8:determinism",
      "src/ldlb/util/tick.hpp:3:layering",
  };
  EXPECT_EQ(got, expected);
}

TEST(AnalyzeFixtures, DeterminismChainNamesEveryHop) {
  // The clock source sits two calls away from the entry point, across
  // three files — the diagnostic must print the whole laundering chain.
  const auto diags = analyze_fixture_tree();
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [](const Diagnostic& d) { return d.rule == "determinism"; });
  ASSERT_NE(it, diags.end());
  EXPECT_EQ(format(*it),
            "src/ldlb/util/tick.cpp:8: [determinism] nondeterminism (clock): "
            "'time' is reachable from certificate entry point "
            "'ldlb::run_adversary_fixture' via ldlb::run_adversary_fixture "
            "-> ldlb::helper_step -> ldlb::now_us");
}

TEST(AnalyzeFixtures, LayeringBackEdgeNamesBothLayers) {
  const auto diags = analyze_fixture_tree();
  const auto it = std::find_if(
      diags.begin(), diags.end(),
      [](const Diagnostic& d) { return d.path == "src/ldlb/util/tick.hpp"; });
  ASSERT_NE(it, diags.end());
  EXPECT_EQ(format(*it),
            "src/ldlb/util/tick.hpp:3: [layering] include of "
            "'src/ldlb/core/entry.hpp' reaches up the layer order: 'util' "
            "(layer 0) may not depend on 'core' (layer 2)");
}

TEST(AnalyzeFixtures, IncludeCycleIsAnchoredAtSmallestMember) {
  const auto diags = analyze_fixture_tree();
  const auto it = std::find_if(
      diags.begin(), diags.end(),
      [](const Diagnostic& d) { return d.path == "src/ldlb/graph/cyc_a.hpp"; });
  ASSERT_NE(it, diags.end());
  EXPECT_EQ(it->message,
            "include cycle: src/ldlb/graph/cyc_a.hpp -> "
            "src/ldlb/graph/cyc_b.hpp -> src/ldlb/graph/cyc_a.hpp");
}

TEST(AnalyzeFixtures, LockOrderInversionCrossReferencesBothSites) {
  const auto diags = analyze_fixture_tree();
  std::vector<std::string> inversions;
  for (const auto& d : diags) {
    if (d.message.rfind("lock-order inversion", 0) == 0) {
      inversions.push_back(format(d));
    }
  }
  const std::vector<std::string> expected = {
      "src/ldlb/core/locked.cpp:18: [locks] lock-order inversion: 'mu_b' "
      "acquired while holding 'mu_a', but the opposite order occurs at "
      "src/ldlb/core/locked.cpp:23",
      "src/ldlb/core/locked.cpp:23: [locks] lock-order inversion: 'mu_a' "
      "acquired while holding 'mu_b', but the opposite order occurs at "
      "src/ldlb/core/locked.cpp:18",
  };
  EXPECT_EQ(inversions, expected);
}

TEST(AnalyzeFixtures, StaleSuppressionNamesItsTargetLine) {
  const auto diags = analyze_fixture_tree();
  const auto it = std::find_if(
      diags.begin(), diags.end(),
      [](const Diagnostic& d) { return d.rule == "stale-suppression"; });
  ASSERT_NE(it, diags.end());
  EXPECT_EQ(format(*it),
            "src/ldlb/graph/stale.cpp:3: [stale-suppression] allow(layering) "
            "suppresses nothing on line 4; remove the stale annotation");
}

TEST(AnalyzeFixtures, SuppressedLoopReportsNothing) {
  // suppressed.cpp plants the same poll-free loop as spin.cpp but carries
  // an allow(cancellation) with a reason — it must contribute neither a
  // cancellation diagnostic nor a stale-suppression one.
  for (const auto& d : analyze_fixture_tree()) {
    EXPECT_NE(d.path, "src/ldlb/core/suppressed.cpp") << format(d);
  }
}

TEST(AnalyzeFixtures, OnlyFilterAnchorsDiagnosticsButAnalysisIsWholeTree) {
  Options options;
  options.root = LDLB_ANALYZE_FIXTURE_ROOT;
  options.only = {"src/ldlb/util/tick.cpp"};
  const auto diags = analyze_tree(options);
  // The chain entry point and intermediate hop live in files *outside* the
  // filter; the diagnostic still fires because reachability runs over the
  // whole tree and only the anchor file is filtered.
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "determinism");
}

TEST(AnalyzeBinary, FixtureTreeFailsRealTreePasses) {
  const auto fixture = run(std::string(LDLB_ANALYZE_BIN) + " --root " +
                           LDLB_ANALYZE_FIXTURE_ROOT);
  EXPECT_EQ(fixture.first, 1);
  EXPECT_EQ(std::count(fixture.second.begin(), fixture.second.end(), '\n'), 10)
      << fixture.second;

  const auto real =
      run(std::string(LDLB_ANALYZE_BIN) + " --root " + LDLB_REPO_ROOT);
  EXPECT_EQ(real.first, 0) << "the real tree must analyze clean:\n"
                           << real.second;
  EXPECT_TRUE(real.second.empty()) << real.second;
}

TEST(AnalyzeBinary, JsonModeRendersPassAndLine) {
  const auto [code, output] = run(std::string(LDLB_ANALYZE_BIN) + " --root " +
                                  LDLB_ANALYZE_FIXTURE_ROOT + " --json");
  EXPECT_EQ(code, 1);
  ASSERT_FALSE(output.empty());
  EXPECT_EQ(output.front(), '[');
  EXPECT_NE(output.find("\"pass\": \"determinism\""), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"path\": \"src/ldlb/core/spin.cpp\", \"line\": 9"),
            std::string::npos)
      << output;
}

TEST(AnalyzeBinary, ListPassesNamesAllFour) {
  const auto [code, output] =
      run(std::string(LDLB_ANALYZE_BIN) + " --list-passes");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(output, "layering\ndeterminism\nlocks\ncancellation\n");
}

TEST(AnalyzeBinary, MissingRootIsAUsageError) {
  const auto [code, output] = run(std::string(LDLB_ANALYZE_BIN) + " --root " +
                                  LDLB_ANALYZE_FIXTURE_ROOT + "/no-such-dir");
  EXPECT_EQ(code, 2) << output;
}

TEST(AnalyzeRealTree, AnalyzesCleanViaLibrary) {
  Options options;
  options.root = LDLB_REPO_ROOT;
  const auto diags = analyze_tree(options);
  std::string joined;
  for (const auto& d : diags) joined += format(d) + "\n";
  EXPECT_TRUE(diags.empty()) << joined;
}

}  // namespace
}  // namespace ldlb::analyze
