// Tests for the synchronous LOCAL executor: delivery semantics (including
// loop self-delivery), round accounting, halting, and output cross-checking.
#include "ldlb/local/simulator.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {
namespace {

// Test algorithm: every node echoes what it received and halts after a fixed
// number of rounds, outputting weight 0 everywhere. Records transcripts so
// tests can inspect delivery.
class EchoAlgorithm : public EcAlgorithm {
 public:
  explicit EchoAlgorithm(int rounds) : rounds_(rounds) {}

  struct Transcript {
    std::vector<std::map<Color, Message>> received;  // per round
  };

  class Node : public EcNodeState {
   public:
    Node(std::vector<Color> colors, int rounds, Transcript* log)
        : colors_(std::move(colors)), rounds_(rounds), log_(log) {}

    std::map<Color, Message> send(int round) override {
      std::map<Color, Message> out;
      for (Color c : colors_) {
        out[c] = "r" + std::to_string(round) + "c" + std::to_string(c);
      }
      return out;
    }
    void receive(int round, const std::map<Color, Message>& inbox) override {
      log_->received.push_back(inbox);
      done_ = round;
    }
    [[nodiscard]] bool halted() const override { return done_ >= rounds_; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = Rational(0);
      return out;
    }

   private:
    std::vector<Color> colors_;
    int rounds_;
    int done_ = 0;
    Transcript* log_;
  };

  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    transcripts.emplace_back();
    return std::make_unique<Node>(ctx.incident_colors, rounds_,
                                  &transcripts.back());
  }
  [[nodiscard]] std::string name() const override { return "Echo"; }

  std::deque<Transcript> transcripts;

 private:
  int rounds_;
};

TEST(Simulator, RequiresProperColoring) {
  Multigraph g(2);
  g.add_edge(0, 1);  // uncoloured
  EchoAlgorithm alg{1};
  EXPECT_THROW(run_ec(g, alg, 10), ContractViolation);
}

TEST(Simulator, CountsRoundsUntilAllHalt) {
  Multigraph g = greedy_edge_coloring(make_path(4));
  EchoAlgorithm alg{3};
  RunResult r = run_ec(g, alg, 100);
  EXPECT_EQ(r.rounds, 3);
}

TEST(Simulator, EnforcesRoundBudget) {
  Multigraph g = greedy_edge_coloring(make_path(2));
  EchoAlgorithm alg{50};
  try {
    run_ec(g, alg, 10);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kRounds);
    EXPECT_EQ(e.limit(), 10);
  }
}

TEST(Simulator, EnforcesMessageBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(5));
  EchoAlgorithm alg{4};
  RunOptions options;
  options.budget.max_rounds = 10;
  options.budget.max_messages = 15;  // each round delivers 20
  try {
    run_ec(g, alg, options);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kMessages);
    EXPECT_GT(e.used(), e.limit());
  }
}

TEST(Simulator, CollectsDiagnostics) {
  Multigraph g = greedy_edge_coloring(make_cycle(5));
  EchoAlgorithm alg{2};
  RunOptions options;
  options.budget.max_rounds = 10;
  RunDiagnostics diag;
  options.diagnostics = &diag;
  RunResult r = run_ec(g, alg, options);
  ASSERT_EQ(diag.per_round.size(), static_cast<std::size_t>(r.rounds));
  long long messages = 0;
  for (const auto& round : diag.per_round) messages += round.messages;
  EXPECT_EQ(messages, r.messages);
  EXPECT_EQ(diag.per_round[0].live_nodes, 5);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(diag.halt_round[static_cast<std::size_t>(v)], 2);
  }
}

TEST(Simulator, DeliversAcrossEdges) {
  // Path 0-1 with colour 0: node 0 must receive node 1's message and vice
  // versa.
  Multigraph g(2);
  g.add_edge(0, 1, 0);
  EchoAlgorithm alg{1};
  run_ec(g, alg, 10);
  ASSERT_EQ(alg.transcripts.size(), 2u);
  EXPECT_EQ(alg.transcripts[0].received[0].at(0), "r1c0");
  EXPECT_EQ(alg.transcripts[1].received[0].at(0), "r1c0");
}

TEST(Simulator, LoopDeliversToSelf) {
  Multigraph g(1);
  g.add_edge(0, 0, 5);
  EchoAlgorithm alg{2};
  RunResult r = run_ec(g, alg, 10);
  ASSERT_EQ(alg.transcripts.size(), 1u);
  // Both rounds the node hears its own message back through the loop.
  EXPECT_EQ(alg.transcripts[0].received[0].at(5), "r1c5");
  EXPECT_EQ(alg.transcripts[0].received[1].at(5), "r2c5");
  EXPECT_EQ(r.messages, 2);
}

TEST(Simulator, MessageCountTwoPerEdgePerRound) {
  Multigraph g = greedy_edge_coloring(make_cycle(5));
  EchoAlgorithm alg{2};
  RunResult r = run_ec(g, alg, 10);
  EXPECT_EQ(r.messages, 2 * 5 * 2);  // 2 per edge per round, 5 edges, 2 rounds
}

// An algorithm whose endpoints disagree on an edge weight must be rejected.
class InconsistentOutput : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    Node(std::vector<Color> colors, bool flip)
        : colors_(std::move(colors)), flip_(flip) {}
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = flip_ ? Rational(1) : Rational(0);
      return out;
    }

   private:
    std::vector<Color> colors_;
    bool flip_;
    bool done_ = false;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors, (count_++ % 2) == 1);
  }
  [[nodiscard]] std::string name() const override { return "Inconsistent"; }

 private:
  int count_ = 0;
};

TEST(Simulator, RejectsInconsistentEdgeOutputs) {
  Multigraph g(2);
  g.add_edge(0, 1, 0);
  InconsistentOutput alg;
  try {
    run_ec(g, alg, 10);
    FAIL() << "expected ModelViolation";
  } catch (const ModelViolation& e) {
    EXPECT_EQ(e.edge(), 0);
  }
}

// --- PO simulator ---------------------------------------------------------

// PO echo: forwards constant tags; outputs 0 everywhere.
class PoEcho : public PoAlgorithm {
 public:
  struct Transcript {
    std::vector<std::map<PoEnd, Message>> received;
  };
  class Node : public PoNodeState {
   public:
    Node(PoNodeContext ctx, Transcript* log) : ctx_(std::move(ctx)), log_(log) {}
    std::map<PoEnd, Message> send(int round) override {
      std::map<PoEnd, Message> out;
      for (Color c : ctx_.out_colors) {
        out[{true, c}] = "out" + std::to_string(c) + "@" + std::to_string(round);
      }
      for (Color c : ctx_.in_colors) {
        out[{false, c}] = "in" + std::to_string(c) + "@" + std::to_string(round);
      }
      return out;
    }
    void receive(int, const std::map<PoEnd, Message>& inbox) override {
      log_->received.push_back(inbox);
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<PoEnd, Rational> output() const override {
      std::map<PoEnd, Rational> out;
      for (Color c : ctx_.out_colors) out[{true, c}] = Rational(0);
      for (Color c : ctx_.in_colors) out[{false, c}] = Rational(0);
      return out;
    }

   private:
    PoNodeContext ctx_;
    Transcript* log_;
    bool done_ = false;
  };
  std::unique_ptr<PoNodeState> make_node(const PoNodeContext& ctx) override {
    transcripts.emplace_back();
    return std::make_unique<Node>(ctx, &transcripts.back());
  }
  [[nodiscard]] std::string name() const override { return "PoEcho"; }
  std::deque<Transcript> transcripts;
};

TEST(Simulator, PoDeliversRespectingDirection) {
  // Arc 0 -> 1, colour 3. Node 0's outgoing end pairs with node 1's
  // incoming end.
  Digraph g(2);
  g.add_arc(0, 1, 3);
  PoEcho alg;
  run_po(g, alg, 10);
  ASSERT_EQ(alg.transcripts.size(), 2u);
  EXPECT_EQ(alg.transcripts[0].received[0].at(PoEnd{true, 3}), "in3@1");
  EXPECT_EQ(alg.transcripts[1].received[0].at(PoEnd{false, 3}), "out3@1");
}

TEST(Simulator, PoDirectedLoopFeedsBothEnds) {
  // A directed loop (Section 3.5: degree 2): the tail end's message arrives
  // at the node's own head end and vice versa.
  Digraph g(1);
  g.add_arc(0, 0, 1);
  PoEcho alg;
  RunResult r = run_po(g, alg, 10);
  ASSERT_EQ(alg.transcripts.size(), 1u);
  EXPECT_EQ(alg.transcripts[0].received[0].at(PoEnd{false, 1}), "out1@1");
  EXPECT_EQ(alg.transcripts[0].received[0].at(PoEnd{true, 1}), "in1@1");
  EXPECT_EQ(r.messages, 2);
}

// PO counterpart of InconsistentOutput: the second node built (the head of
// the test arc) announces a different weight, or no weight at all, on its
// incoming ends.
class PoInconsistentOutput : public PoAlgorithm {
 public:
  enum class Fault { kDisagree, kOmit };
  explicit PoInconsistentOutput(Fault fault) : fault_(fault) {}

  class Node : public PoNodeState {
   public:
    Node(PoNodeContext ctx, bool faulty, Fault fault)
        : ctx_(std::move(ctx)), faulty_(faulty), fault_(fault) {}
    std::map<PoEnd, Message> send(int) override { return {}; }
    void receive(int, const std::map<PoEnd, Message>&) override {
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<PoEnd, Rational> output() const override {
      std::map<PoEnd, Rational> out;
      for (Color c : ctx_.out_colors) out[{true, c}] = Rational(0);
      if (faulty_ && fault_ == Fault::kOmit) return out;
      for (Color c : ctx_.in_colors) {
        out[{false, c}] = faulty_ ? Rational(1) : Rational(0);
      }
      return out;
    }

   private:
    PoNodeContext ctx_;
    bool faulty_;
    Fault fault_;
    bool done_ = false;
  };
  std::unique_ptr<PoNodeState> make_node(const PoNodeContext& ctx) override {
    return std::make_unique<Node>(ctx, (count_++ % 2) == 1, fault_);
  }
  [[nodiscard]] std::string name() const override { return "PoInconsistent"; }

 private:
  Fault fault_;
  int count_ = 0;
};

// what() of the ModelViolation run_po raises on the arc 0 -> 1, colour 0.
std::string po_violation(PoInconsistentOutput::Fault fault) {
  Digraph g(2);
  g.add_arc(0, 1, 0);
  PoInconsistentOutput alg{fault};
  try {
    run_po(g, alg, 10);
  } catch (const ModelViolation& e) {
    return e.what();
  }
  return "no ModelViolation";
}

TEST(Simulator, PoRejectsInconsistentArcOutputs) {
  EXPECT_EQ(po_violation(PoInconsistentOutput::Fault::kDisagree),
            "ends of arc 0 disagree: 0 vs 1 (algorithm 'PoInconsistent')");
  EXPECT_EQ(po_violation(PoInconsistentOutput::Fault::kOmit),
            "node 1 announced no weight for its incoming colour-0 end");
}

}  // namespace
}  // namespace ldlb
