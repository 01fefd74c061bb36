// Tests for the fractional matching verifiers — the library's ground truth.
#include "ldlb/matching/checker.hpp"

#include <gtest/gtest.h>

#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/local/simulator.hpp"

namespace ldlb {
namespace {

FractionalMatching weights(std::vector<Rational> w) {
  return FractionalMatching{std::move(w)};
}

TEST(Checker, FeasibleBasics) {
  Multigraph g = make_path(3);
  EXPECT_TRUE(check_feasible(g, weights({Rational(1, 2), Rational(1, 2)})).ok);
  EXPECT_FALSE(check_feasible(g, weights({Rational(3, 4), Rational(1, 2)})).ok)
      << "middle node oversaturated";
  EXPECT_FALSE(check_feasible(g, weights({Rational(-1, 4), Rational(0)})).ok);
  EXPECT_FALSE(check_feasible(g, weights({Rational(5, 4), Rational(0)})).ok);
  EXPECT_FALSE(check_feasible(g, weights({Rational(0)})).ok) << "size mismatch";
}

TEST(Checker, LoopCountsOnceInMultigraphs) {
  Multigraph g = make_loop_star(1);
  EXPECT_TRUE(check_feasible(g, weights({Rational(1)})).ok);
  EXPECT_TRUE(check_fully_saturated(g, weights({Rational(1)})).ok);
  EXPECT_FALSE(check_feasible(g, weights({Rational(9, 8)})).ok);
}

TEST(Checker, LoopCountsTwiceInDigraphs) {
  Digraph g = make_directed_cycle(1);
  EXPECT_TRUE(check_feasible(g, weights({Rational(1, 2)})).ok);
  EXPECT_TRUE(check_fully_saturated(g, weights({Rational(1, 2)})).ok);
  EXPECT_FALSE(check_feasible(g, weights({Rational(3, 4)})).ok);
}

TEST(Checker, MaximalityHalfWeightsOnPath) {
  // Section 1.2 style: 1/2 everywhere on a 4-edge path saturates all three
  // interior nodes, so every edge has a saturated endpoint — maximal.
  Multigraph g = make_path(5);
  auto y = weights({Rational(1, 2), Rational(1, 2), Rational(1, 2),
                    Rational(1, 2)});
  auto r = check_maximal(g, y);
  EXPECT_TRUE(r.ok) << r.reason;
  // Zeroing the tail breaks maximality at the last edge.
  auto bad = weights({Rational(1, 2), Rational(1, 2), Rational(0),
                      Rational(0)});
  EXPECT_FALSE(check_maximal(g, bad).ok);
}

TEST(Checker, MaximalReportsOffendingEdge) {
  Multigraph g = make_path(3);
  auto r = check_maximal(g, weights({Rational(0), Rational(0)}));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("edge 0"), std::string::npos);
}

TEST(Checker, SaturatedNodesList) {
  Multigraph g = make_path(3);
  auto y = weights({Rational(1), Rational(0)});
  auto sat = saturated_nodes(g, y);
  EXPECT_EQ(sat, (std::vector<NodeId>{0, 1}));
}

TEST(Checker, IntegralityPredicate) {
  EXPECT_TRUE(is_integral(weights({Rational(1), Rational(0)})));
  EXPECT_FALSE(is_integral(weights({Rational(1, 2)})));
}

TEST(Checker, InfeasibleReportedBeforeMaximality) {
  Multigraph g = make_path(3);
  auto r = check_maximal(g, weights({Rational(2), Rational(0)}));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("outside [0,1]"), std::string::npos);
}

TEST(Checker, DigraphMaximality) {
  Digraph g = make_directed_cycle(3);
  auto all_half = weights({Rational(1, 2), Rational(1, 2), Rational(1, 2)});
  EXPECT_TRUE(check_maximal(g, all_half).ok);
  EXPECT_TRUE(check_fully_saturated(g, all_half).ok);
  auto zeros = weights({Rational(0), Rational(0), Rational(0)});
  EXPECT_FALSE(check_maximal(g, zeros).ok);
}

// Halts after one round with the all-zero output: passes the simulator's
// cross-check but fails maximality on any graph with an edge.
class AllZero : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    explicit Node(std::vector<Color> colors) : colors_(std::move(colors)) {}
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = Rational(0);
      return out;
    }

   private:
    std::vector<Color> colors_;
    bool done_ = false;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors);
  }
  [[nodiscard]] std::string name() const override { return "AllZero"; }
};

// A clean run with a wrong output: the checker reports exactly how.
TEST(Checker, ReportsViolationSiteOfSimulatedRun) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  AllZero alg;
  const RunResult run = run_ec(g, alg, 10);
  const CheckResult r = check_maximal(g, run.matching);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.report.kind, ViolationKind::kEdgeUnsaturated);
  EXPECT_GE(r.report.edge, 0);
  EXPECT_EQ(r.report.amount, Rational(1));  // deficit below 1
}

TEST(Checker, TotalWeight) {
  auto y = weights({Rational(1, 2), Rational(1, 3)});
  EXPECT_EQ(y.total_weight(), Rational(5, 6));
}

}  // namespace
}  // namespace ldlb
