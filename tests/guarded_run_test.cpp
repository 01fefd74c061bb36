// Tests for the guarded execution wrapper: budget enforcement, typed
// classification of failures, and checker integration.
#include "ldlb/fault/guarded_run.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/matching/seq_color_packing.hpp"

namespace ldlb {
namespace {

int num_colors(const Multigraph& g) {
  int k = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    k = std::max(k, g.edge(e).color + 1);
  }
  return k;
}

// Chatty non-halting algorithm used to trip budgets.
class Chatter : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    explicit Node(std::vector<Color> colors) : colors_(std::move(colors)) {}
    std::map<Color, Message> send(int) override {
      std::map<Color, Message> out;
      for (Color c : colors_) out[c] = "x";
      return out;
    }
    void receive(int, const std::map<Color, Message>&) override {}
    [[nodiscard]] bool halted() const override { return false; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      return {};
    }

   private:
    std::vector<Color> colors_;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors);
  }
  [[nodiscard]] std::string name() const override { return "Chatter"; }
};

// Halts immediately with the all-zero output: passes the simulator's
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

TEST(GuardedRun, CleanRunPassesWithDiagnostics) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  SeqColorPacking alg{num_colors(g)};
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_EQ(outcome.classification(), "ok");
  EXPECT_TRUE(outcome.error.empty());
  ASSERT_TRUE(outcome.run.has_value());
  EXPECT_TRUE(outcome.check.ok);
  ASSERT_EQ(outcome.diagnostics.per_round.size(),
            static_cast<std::size_t>(outcome.run->rounds));
  EXPECT_EQ(outcome.diagnostics.per_round[0].live_nodes, 6);
  for (int r : outcome.diagnostics.halt_round) EXPECT_GT(r, 0);
  EXPECT_TRUE(outcome.diagnostics.first_violation.empty());
}

TEST(GuardedRun, ClassifiesRoundBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  Chatter alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 5;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded);
  EXPECT_EQ(outcome.classification(), "budget-exceeded");
  EXPECT_FALSE(outcome.run.has_value());
  EXPECT_EQ(outcome.diagnostics.first_violation, outcome.error);
  // Partial diagnostics survive the abort: 5 full rounds were recorded.
  EXPECT_EQ(outcome.diagnostics.per_round.size(), 5u);
}

TEST(GuardedRun, ClassifiesMessageBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  Chatter alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 100;
  options.budget.max_messages = 30;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded);
  EXPECT_NE(outcome.error.find("message"), std::string::npos);
}

TEST(GuardedRun, ClassifiesWallClockBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  Chatter alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 1000000;
  options.budget.max_wall_seconds = 1e-7;  // rounds down to a 0µs allowance
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded);
  EXPECT_NE(outcome.error.find("wall"), std::string::npos);
}

TEST(GuardedRun, ClassifiesModelViolation) {
  // An improper colouring (two colour-0 ends at node 1) is caught by the
  // simulator's precondition as a contract violation; an announced weight
  // mismatch is a model violation. Use the latter via a mismatched output.
  Multigraph g(2);
  g.add_edge(0, 1, 0);
  class Mismatch : public EcAlgorithm {
   public:
    class Node : public EcNodeState {
     public:
      explicit Node(bool flip) : flip_(flip) {}
      std::map<Color, Message> send(int) override { return {}; }
      void receive(int, const std::map<Color, Message>&) override {
        done_ = true;
      }
      [[nodiscard]] bool halted() const override { return done_; }
      [[nodiscard]] std::map<Color, Rational> output() const override {
        return {{0, flip_ ? Rational(1) : Rational(0)}};
      }

     private:
      bool flip_;
      bool done_ = false;
    };
    std::unique_ptr<EcNodeState> make_node(const EcNodeContext&) override {
      return std::make_unique<Node>((count_++ % 2) == 1);
    }
    [[nodiscard]] std::string name() const override { return "Mismatch"; }

   private:
    int count_ = 0;
  } alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kModelViolation);
  EXPECT_EQ(outcome.classification(), "model-violation");
}

TEST(GuardedRun, ChecksOutputAndReportsViolationSite) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  AllZero alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  // The run itself is clean; the *output* is wrong, and the checker says
  // exactly how.
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.classification(), "check:edge-unsaturated");
  EXPECT_FALSE(outcome.check.ok);
  EXPECT_EQ(outcome.check.report.kind, ViolationKind::kEdgeUnsaturated);
  EXPECT_GE(outcome.check.report.edge, 0);
  EXPECT_EQ(outcome.check.report.amount, Rational(1));  // deficit below 1
  EXPECT_EQ(outcome.diagnostics.first_violation, outcome.check.reason);
}

TEST(GuardedRun, RunStatusToStringCoversEveryValueDistinctly) {
  // The error taxonomy is machine-readable only if every status renders to
  // its own stable, non-null token — supervision logs, CI triage and the
  // demos all key on these strings.
  const RunStatus all[] = {
      RunStatus::kOk, RunStatus::kBudgetExceeded, RunStatus::kModelViolation,
      RunStatus::kContractViolation,
  };
  std::set<std::string> seen;
  for (RunStatus status : all) {
    const char* text = to_string(status);
    ASSERT_NE(text, nullptr);
    EXPECT_STRNE(text, "");
    EXPECT_STRNE(text, "unknown");
    seen.insert(text);
  }
  EXPECT_EQ(seen.size(), std::size(all));
}

TEST(GuardedRun, CheckCanBeDisabled) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  AllZero alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  options.check_output = false;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.classification(), "ok");
}

}  // namespace
}  // namespace ldlb
