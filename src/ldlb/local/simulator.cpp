#include "ldlb/local/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "ldlb/util/thread_pool.hpp"

namespace ldlb {

namespace {

// Runs fn(v) for every node, spreading across the global pool when the
// caller established that doing so is safe. Iteration order differs under
// parallelism but every write lands in a caller-owned per-node slot, so
// results are identical to the serial loop. A cancellation token, when
// given, is polled between chunks (parallel) or every few nodes (serial).
template <typename Fn>
void for_each_node(bool parallel, NodeId n, CancellationToken* cancel,
                   const Fn& fn) {
  if (parallel) {
    global_pool().parallel_for(
        static_cast<std::size_t>(n),
        [&fn](std::size_t i) { fn(static_cast<NodeId>(i)); }, cancel);
  } else {
    for (NodeId v = 0; v < n; ++v) {
      if (cancel != nullptr && v % 32 == 0) cancel->check();
      fn(v);
    }
  }
}

// Messages to deliver between cancellation / wall-budget polls inside one
// round's delivery loop: coarse enough to be free, fine enough that a
// cancel lands mid-round on dense instances.
constexpr long long kDeliveryPollStride = 4096;

// ldlb-lint: allow(nondeterminism): wall-clock *budget* enforcement only —
// a monotonic clock that decides when BudgetExceeded fires, never what any
// node computes; certificate bytes are clock-independent.
using Clock = std::chrono::steady_clock;

long long elapsed_us(Clock::time_point t0) {
  // ldlb-analyze: allow(determinism): wall-budget accounting; overruns
  // abort via BudgetExceeded, certificate bytes are clock-independent.
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

// Budget checks shared by both executors.
void check_round_budget(const RunBudget& b, int round,
                        const std::string& algo) {
  if (round > b.max_rounds) {
    std::ostringstream os;
    os << "algorithm '" << algo << "' exceeded " << b.max_rounds << " rounds";
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kRounds,
                         b.max_rounds, round);
  }
}

void check_wall_budget(const RunBudget& b, Clock::time_point t0,
                       const std::string& algo) {
  if (b.max_wall_seconds <= 0) return;
  const long long used = elapsed_us(t0);
  const long long limit =
      static_cast<long long>(b.max_wall_seconds * 1e6);
  if (used > limit) {
    std::ostringstream os;
    os << "algorithm '" << algo << "' exceeded the wall-clock budget of "
       << b.max_wall_seconds << "s";
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kWallClock, limit,
                         used);
  }
}

void check_message_budget(const RunBudget& b, long long delivered,
                          const std::string& algo) {
  if (b.max_messages > 0 && delivered > b.max_messages) {
    std::ostringstream os;
    os << "algorithm '" << algo << "' exceeded the message budget of "
       << b.max_messages;
    throw BudgetExceeded(os.str(), BudgetExceeded::Kind::kMessages,
                         b.max_messages, delivered);
  }
}

}  // namespace

void RunDiagnostics::reset(NodeId nodes) {
  per_round.clear();
  halt_round.assign(static_cast<std::size_t>(nodes), -1);
  first_violation.clear();
}

RunResult run_ec(const Multigraph& g, EcAlgorithm& alg,
                 const RunOptions& options) {
  LDLB_REQUIRE_MSG(options.budget.max_rounds > 0,
                   "a run budget needs max_rounds > 0");
  LDLB_REQUIRE_MSG(g.has_proper_edge_coloring(),
                   "EC algorithms need a proper edge colouring");
  // Closed-form fast path: when nothing observes the round-by-round
  // execution (no diagnostics, no message or wall-clock budget — those are
  // defined over interpreted traffic), an algorithm with a direct
  // evaluator produces the identical RunResult without building node state
  // machines or materialising messages. The round budget still applies to
  // the evaluated round count, with the interpreter's exact error.
  if (options.diagnostics == nullptr && options.budget.max_messages <= 0 &&
      options.budget.max_wall_seconds <= 0) {
    if (std::optional<EcDirectRun> direct = alg.evaluate_direct(g)) {
      if (options.cancel) options.cancel->check();
      // The interpreter only notices the overrun when it *enters* round
      // max_rounds + 1, i.e. exactly when the run needs more rounds.
      check_round_budget(options.budget,
                         std::min(direct->rounds,
                                  options.budget.max_rounds + 1),
                         alg.name());
      LDLB_ENSURE(direct->edge_weights.size() ==
                  static_cast<std::size_t>(g.edge_count()));
      RunResult result;
      result.rounds = direct->rounds;
      result.messages = direct->messages;
      result.message_bytes = direct->message_bytes;
      // Adopt the weight vector wholesale — the per-edge set_weight loop
      // this replaces cost more than the evaluation itself at Δ=12.
      result.matching = FractionalMatching(std::move(direct->edge_weights));
      return result;
    }
  }
  const int delta = g.max_degree();
  // ldlb-analyze: allow(determinism): start-of-run timestamp for the wall
  // budget; only decides when BudgetExceeded fires.
  const auto t0 = Clock::now();
  RunDiagnostics* diag = options.diagnostics;
  CancellationToken* cancel = options.cancel;
  if (diag) diag->reset(g.node_count());
  const bool par = alg.parallel_safe() && global_pool().size() > 1;

  std::vector<std::unique_ptr<EcNodeState>> nodes(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
    EcNodeContext ctx;
    for (EdgeId e : g.incident_edges(v)) {
      ctx.incident_colors.push_back(g.edge(e).color);
    }
    std::sort(ctx.incident_colors.begin(), ctx.incident_colors.end());
    ctx.max_degree = delta;
    nodes[static_cast<std::size_t>(v)] = alg.make_node(ctx);
  });

  RunResult result;
  // halted() is a virtual call and the round loop consults it O(n) times per
  // round; cache it in a flags array instead. The flag is refreshed at every
  // point the bit can flip (construction, send, receive), so reading the
  // flag is indistinguishable from calling halted() directly.
  std::vector<char> halted(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    halted[static_cast<std::size_t>(v)] =
        nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
  }
  auto done = [&](NodeId v) {
    return halted[static_cast<std::size_t>(v)] != 0;
  };
  auto all_done = [&] {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) return false;
    }
    return true;
  };
  auto record_halts = [&](int round) {
    if (!diag) return;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto& slot = diag->halt_round[static_cast<std::size_t>(v)];
      if (slot < 0 && halted[static_cast<std::size_t>(v)]) slot = round;
    }
  };
  record_halts(0);

  // Per-node incident ends sorted by colour, for outbox-driven delivery:
  // properness makes (node, colour) identify at most one edge, so a node's
  // outbox entries (a std::map, also colour-sorted) can be merge-joined
  // against this table in O(deg + |outbox|).
  struct IncidentEnd {
    Color color;
    NodeId peer;
  };
  std::vector<std::vector<IncidentEnd>> ends_by_color(
      static_cast<std::size_t>(g.node_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    // A loop delivers once, from the node back to itself.
    ends_by_color[static_cast<std::size_t>(ed.u)].push_back({ed.color, ed.v});
    if (!ed.is_loop()) {
      ends_by_color[static_cast<std::size_t>(ed.v)].push_back({ed.color, ed.u});
    }
  }
  for (auto& ends : ends_by_color) {
    std::sort(ends.begin(), ends.end(),
              [](const IncidentEnd& a, const IncidentEnd& b) {
                return a.color < b.color;
              });
  }

  int round = 0;
  while (!all_done()) {
    ++round;
    check_round_budget(options.budget, round, alg.name());
    check_wall_budget(options.budget, t0, alg.name());
    if (cancel) cancel->check();
    int live = 0;
    // A node's own send may flip its halted() bit, but each node's liveness
    // is sampled before its own send and nodes do not affect each other
    // inside a round, so this pre-count matches the serial interleaving.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) ++live;
    }
    // Collect outboxes of live nodes (each write lands in slot v).
    std::vector<std::map<Color, Message>> outbox(
        static_cast<std::size_t>(g.node_count()));
    for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      outbox[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->send(round);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    long long round_messages = 0, round_bytes = 0;
    std::vector<std::map<Color, Message>> inbox(
        static_cast<std::size_t>(g.node_count()));
    // Outbox-driven delivery: merge-join each node's (colour-sorted)
    // outbox against its colour-sorted incident ends — O(messages + deg)
    // per node instead of a scan over every edge per round. Each
    // (node, colour) inbox slot receives at most one message (properness)
    // and the per-round counters are order-independent sums, so delivery
    // order is unobservable.
    long long next_poll = kDeliveryPollStride;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (round_messages >= next_poll) {
        next_poll += kDeliveryPollStride;
        if (cancel) cancel->check();
        check_wall_budget(options.budget, t0, alg.name());
      }
      auto& out = outbox[static_cast<std::size_t>(v)];
      if (out.empty()) continue;
      const auto& ends = ends_by_color[static_cast<std::size_t>(v)];
      auto it = out.begin();
      for (const IncidentEnd& end : ends) {
        // ldlb-analyze: allow(cancellation): bounded — advances an
        // iterator strictly forward over one node's outbox.
        while (it != out.end() && it->first < end.color) ++it;
        if (it == out.end()) break;
        if (it->first != end.color) continue;
        round_bytes += static_cast<long long>(it->second.size());
        ++round_messages;
        inbox[static_cast<std::size_t>(end.peer)][end.color] =
            std::move(it->second);
        ++it;
      }
    }
    result.messages += round_messages;
    result.message_bytes += round_bytes;
    if (diag) diag->per_round.push_back({round_messages, round_bytes, live});
    check_message_budget(options.budget, result.messages, alg.name());
    for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      nodes[static_cast<std::size_t>(v)]->receive(
          round, inbox[static_cast<std::size_t>(v)]);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    record_halts(round);
  }
  result.rounds = round;

  // Assemble and cross-check the output.
  std::vector<std::map<Color, Rational>> outputs(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
    outputs[static_cast<std::size_t>(v)] =
        nodes[static_cast<std::size_t>(v)]->output();
  });
  result.matching = FractionalMatching(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    auto weight_at = [&](NodeId v) {
      const auto& out = outputs[static_cast<std::size_t>(v)];
      auto it = out.find(ed.color);
      if (it == out.end()) {
        std::ostringstream os;
        os << "node " << v << " announced no weight for its colour-"
           << ed.color << " end";
        throw ModelViolation(os.str(), v, e);
      }
      return it->second;
    };
    Rational wu = weight_at(ed.u);
    if (!ed.is_loop()) {
      Rational wv = weight_at(ed.v);
      if (wu != wv) {
        std::ostringstream os;
        os << "endpoints of edge " << e << " disagree: " << wu << " vs "
           << wv << " (algorithm '" << alg.name() << "')";
        throw ModelViolation(os.str(), -1, e);
      }
    }
    result.matching.set_weight(e, wu);
  }
  return result;
}

RunResult run_po(const Digraph& g, PoAlgorithm& alg,
                 const RunOptions& options) {
  LDLB_REQUIRE_MSG(options.budget.max_rounds > 0,
                   "a run budget needs max_rounds > 0");
  LDLB_REQUIRE_MSG(g.has_proper_po_coloring(),
                   "PO algorithms need a proper PO colouring");
  const int delta = g.max_degree();
  const auto t0 = Clock::now();
  RunDiagnostics* diag = options.diagnostics;
  CancellationToken* cancel = options.cancel;
  if (diag) diag->reset(g.node_count());
  const bool par = alg.parallel_safe() && global_pool().size() > 1;

  std::vector<std::unique_ptr<PoNodeState>> nodes(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
    PoNodeContext ctx;
    for (EdgeId a : g.out_arcs(v)) ctx.out_colors.push_back(g.arc(a).color);
    for (EdgeId a : g.in_arcs(v)) ctx.in_colors.push_back(g.arc(a).color);
    std::sort(ctx.out_colors.begin(), ctx.out_colors.end());
    std::sort(ctx.in_colors.begin(), ctx.in_colors.end());
    ctx.max_degree = delta;
    nodes[static_cast<std::size_t>(v)] = alg.make_node(ctx);
  });

  RunResult result;
  // Cached halted() bits, refreshed wherever the bit can flip — see run_ec.
  std::vector<char> halted(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    halted[static_cast<std::size_t>(v)] =
        nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
  }
  auto done = [&](NodeId v) {
    return halted[static_cast<std::size_t>(v)] != 0;
  };
  auto all_done = [&] {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) return false;
    }
    return true;
  };
  auto record_halts = [&](int round) {
    if (!diag) return;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto& slot = diag->halt_round[static_cast<std::size_t>(v)];
      if (slot < 0 && halted[static_cast<std::size_t>(v)]) slot = round;
    }
  };
  record_halts(0);

  int round = 0;
  while (!all_done()) {
    ++round;
    check_round_budget(options.budget, round, alg.name());
    check_wall_budget(options.budget, t0, alg.name());
    if (cancel) cancel->check();
    int live = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!done(v)) ++live;
    }
    std::vector<std::map<PoEnd, Message>> outbox(
        static_cast<std::size_t>(g.node_count()));
    for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      outbox[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->send(round);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    long long round_messages = 0, round_bytes = 0;
    std::vector<std::map<PoEnd, Message>> inbox(
        static_cast<std::size_t>(g.node_count()));
    auto deliver = [&](NodeId from, PoEnd from_end, NodeId to,
                       PoEnd to_end) {
      auto it = outbox[static_cast<std::size_t>(from)].find(from_end);
      if (it == outbox[static_cast<std::size_t>(from)].end()) return;
      // PO-properness makes each (node, end) outbox entry single-consumer,
      // so the payload moves, as in EC delivery.
      round_bytes += static_cast<long long>(it->second.size());
      ++round_messages;
      inbox[static_cast<std::size_t>(to)][to_end] = std::move(it->second);
    };
    long long next_poll = kDeliveryPollStride;
    for (EdgeId a = 0; a < g.arc_count(); ++a) {
      if (round_messages >= next_poll) {
        next_poll += kDeliveryPollStride;
        if (cancel) cancel->check();
        check_wall_budget(options.budget, t0, alg.name());
      }
      const auto& arc = g.arc(a);
      const Color c = arc.color;
      // Tail's outgoing end pairs with head's incoming end (also for loops,
      // where both ends sit on the same node).
      deliver(arc.tail, {true, c}, arc.head, {false, c});
      deliver(arc.head, {false, c}, arc.tail, {true, c});
    }
    result.messages += round_messages;
    result.message_bytes += round_bytes;
    if (diag) diag->per_round.push_back({round_messages, round_bytes, live});
    check_message_budget(options.budget, result.messages, alg.name());
    for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
      if (done(v)) return;
      nodes[static_cast<std::size_t>(v)]->receive(
          round, inbox[static_cast<std::size_t>(v)]);
      halted[static_cast<std::size_t>(v)] =
          nodes[static_cast<std::size_t>(v)]->halted() ? 1 : 0;
    });
    record_halts(round);
  }
  result.rounds = round;

  std::vector<std::map<PoEnd, Rational>> outputs(
      static_cast<std::size_t>(g.node_count()));
  for_each_node(par, g.node_count(), cancel, [&](NodeId v) {
    outputs[static_cast<std::size_t>(v)] =
        nodes[static_cast<std::size_t>(v)]->output();
  });
  result.matching = FractionalMatching(g.arc_count());
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    const auto& arc = g.arc(a);
    auto weight_at = [&](NodeId v, PoEnd end) {
      const auto& out = outputs[static_cast<std::size_t>(v)];
      auto it = out.find(end);
      if (it == out.end()) {
        std::ostringstream os;
        os << "node " << v << " announced no weight for its "
           << (end.outgoing ? "outgoing" : "incoming") << " colour-"
           << end.color << " end";
        throw ModelViolation(os.str(), v, a);
      }
      return it->second;
    };
    Rational wt = weight_at(arc.tail, {true, arc.color});
    Rational wh = weight_at(arc.head, {false, arc.color});
    if (wt != wh) {
      std::ostringstream os;
      os << "ends of arc " << a << " disagree: " << wt << " vs " << wh
         << " (algorithm '" << alg.name() << "')";
      throw ModelViolation(os.str(), -1, a);
    }
    result.matching.set_weight(a, wt);
  }
  return result;
}

RunResult run_ec(const Multigraph& g, EcAlgorithm& alg, int max_rounds) {
  RunOptions options;
  options.budget.max_rounds = max_rounds;
  return run_ec(g, alg, options);
}

RunResult run_po(const Digraph& g, PoAlgorithm& alg, int max_rounds) {
  RunOptions options;
  options.budget.max_rounds = max_rounds;
  return run_po(g, alg, options);
}

}  // namespace ldlb
