// Shared test subject for the failure-path suites (cancellation_test,
// parallel_determinism_test): an EC algorithm that finishes the base case
// and never halts afterwards.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "ldlb/local/algorithm.hpp"
#include "ldlb/matching/seq_color_packing.hpp"

namespace ldlb {

// Thread-safe subject that fails only inside adversary step 1: its first
// two make_node calls (the base case's two one-node runs) delegate to
// SeqColorPacking, every later node never halts. Every step-1 branch, GH,
// GG and HH alike, therefore runs until its round budget trips or its
// cancellation token fires.
class HaltsOnlyInBaseCase : public EcAlgorithm {
 public:
  explicit HaltsOnlyInBaseCase(int delta) : base_(delta) {}

  class Spinner : public EcNodeState {
   public:
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {}
    [[nodiscard]] bool halted() const override { return false; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      return {};
    }
  };

  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    if (made_.fetch_add(1) < 2) return base_.make_node(ctx);
    return std::make_unique<Spinner>();
  }
  [[nodiscard]] std::string name() const override {
    return "HaltsOnlyInBaseCase";
  }
  [[nodiscard]] bool parallel_safe() const override { return true; }

  /// make_node calls so far; above 2 once a step-1 run has started.
  [[nodiscard]] int made() const { return made_.load(); }

 private:
  SeqColorPacking base_;
  std::atomic<int> made_{0};
};

}  // namespace ldlb
